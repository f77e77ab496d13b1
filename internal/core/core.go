package core

import (
	"fmt"

	"repro/internal/frontend"
	"repro/internal/mem"
	"repro/internal/rename"
	"repro/internal/runahead"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// Core is one simulated out-of-order core plus its runahead controller.
// Build with New; drive with Run or Step. Not safe for concurrent use.
type Core struct {
	cfg   Config
	stats *Stats

	hier   *mem.Hierarchy
	stream *trace.Stream
	pred   *frontend.Predictor
	fetch  *frontend.FetchUnit
	ren    *rename.Renamer

	rob    *rob
	iq     *issueQueue
	sq     *storeQueue
	pre    *prePool
	events eventQueue
	fu     *fuPools

	lqNorm, lqPre int // load-queue occupancy (normal / PRE transient)

	sst  *runahead.SST
	prdq *runahead.PRDQ
	emq  *runahead.EMQ

	now int64

	// Runahead episode state.
	inRunahead   bool
	pseudoRetire bool // RA / RA-buffer
	entryCycle   int64
	exitCycle    int64
	stallSeq     int64
	stallPC      uint64
	stallDstP    rename.PReg
	cpFull       *rename.Checkpoint // RA / RA-buffer (committed state)
	cpSpec       *rename.Checkpoint // PRE (speculative RAT + free lists)
	lastSkipSeq  int64              // interval-filter skip deduplication

	// PRE episode state.
	preResumeSeq int64 // first µop consumed during runahead (-1 = none)
	preDiverged  int
	preScanStop  bool
	emqDraining  bool

	// RA-buffer replay state.
	chain         []uarch.Uop
	replayCursor  int64
	replayPending []int64
	replayIdx     int
	replayDead    bool
	replayStart   int64 // replay begins after the backward walk finishes

	// raDiverged: an unresolvable (INV-source) mispredicted branch sent
	// traditional runahead off-path; further prefetches this episode are
	// suppressed.
	raDiverged bool

	// E6 (FreeExit) snapshot.
	snap *pipeSnapshot

	// Refill-penalty measurement (E4): after a flush-exit, count the
	// cycles until a full window's worth of µops has been re-dispatched —
	// the paper's "8 cycles front-end + 48 cycles ROB refill" estimate.
	refillFrom       int64
	refillDispatched int64
	measuringRefill  bool

	// Deadlock watchdog.
	lastProgress int64

	// Cycle-skip bookkeeping (see skip.go). progressed is set by any stage
	// that mutates machine state in a way later cycles could observe;
	// retryBlocked is set when something is retrying a time-dependent
	// resource (MSHR-full load, busy divider, I-cache MSHR) whose retry
	// attempt is itself a counted event every cycle. A Step that sets
	// neither is provably idle until the next scheduled wake-up, so Run
	// advances time in bulk with exactly the per-cycle accounting the
	// skipped cycles would have performed.
	progressed   bool
	retryBlocked bool
	stalledFW    bool // onFullWindow counted a stall this cycle

	// Issue-queue quiescence: iqDirty is set by anything that could make
	// a waiting µop issueable (or an IQ ref stale) — wake-ups, pushes of
	// ready µops, runahead transitions; iqRetry records that the last
	// scan left a ready-but-blocked µop (port/MSHR/divider), which must
	// re-attempt every cycle. When both are clear the scan provably does
	// nothing and issueStage returns immediately.
	iqDirty bool
	iqRetry bool

	// Wake-up scheduling: waiters[p] lists the in-flight µops waiting on
	// physical register p; completion decrements each waiter's srcWait
	// instead of the issue stage re-polling every source every cycle.
	// Stale entries (squashed µops) are filtered by slot generation.
	waiters [][]uopRef

	// Pre-bound closures for the per-cycle hot path (building these
	// inline would allocate a funcval every cycle).
	sqDrainFn func(*sqEntry) bool
	renFree   func(rename.PReg)

	// dispatchRun is the reusable per-cycle buffer the decode-pipe head
	// run is copied into (one fetch-queue scan per cycle). It holds a
	// cycle of either dispatch width: Width, or RunaheadWidth for PRE's
	// runahead decode.
	dispatchRun []frontend.Slot

	// Reusable per-episode buffers (zero-allocation steady state).
	cpFullBuf   rename.Checkpoint
	cpSpecBuf   rename.Checkpoint
	snapBuf     pipeSnapshot
	chainX      runahead.ChainExtractor
	chainWindow []uarch.Uop

	// DisableCycleSkip forces Run to execute every simulated cycle
	// individually instead of skipping provably idle spans — the debug
	// knob behind the skip-vs-no-skip differential tests. Results are
	// byte-identical either way; only wall-clock differs.
	DisableCycleSkip bool

	// OnCommit, when set, is invoked with each architecturally committed
	// µop's sequence number — an instrumentation hook for tests and
	// tracing tools (pseudo-retirement does not trigger it).
	OnCommit func(seq int64)

	// tel, when attached, receives timeline events (runahead episodes,
	// stall spans, cycle skips). It is a concrete pointer, not an
	// interface, so every hook site is a single nil check on the disabled
	// path — telemetry must never cost the zero-allocation steady state
	// anything, and must never perturb results (it only reads).
	tel *telemetry.Recorder
	// Episode-entry stat baselines for the exit event's deltas; only
	// written when tel is attached.
	telDispatched, telPrefetches, telINV int64

	// retryCtrs is the retry counter table (skip.go): pointers to every
	// live counter a retry cycle may touch, in retrySnap order.
	retryCtrs [retryReplicable + retryGuards]*int64
}

// New builds a core in the given mode over a fresh trace stream.
func New(cfg Config, gen trace.Generator) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	stream := trace.NewStream(gen)
	if cfg.Mode == ModeRABuffer {
		// The replay engine's cursor keeps moving forward within an
		// episode, and each prepared iteration scans ReplayLookahead µops
		// past it, all while commit (and hence trace release) is stalled on
		// the blocking load. The live span of the trace ring is therefore
		// several lookahead windows deep on long DRAM stalls. Pre-size the
		// ring generously so the steady state never triggers a grow — the
		// last allocation on the hot path.
		window := 8*int(cfg.ReplayLookahead) + cfg.ROBSize + cfg.Fetch.QueueSize
		stream = trace.NewStreamSized(gen, window)
	}
	hier := mem.New(cfg.Mem)
	pred := frontend.NewPredictor(cfg.Predictor)
	c := &Core{
		cfg:          cfg,
		stats:        NewStats(),
		hier:         hier,
		stream:       stream,
		pred:         pred,
		fetch:        frontend.NewFetchUnit(cfg.Fetch, stream, pred, hier),
		ren:          rename.New(cfg.Rename),
		rob:          newROB(cfg.ROBSize),
		iq:           newIQ(cfg.IQSize),
		sq:           newSQ(cfg.SQSize),
		pre:          newPrePool(cfg.IQSize + cfg.ROBSize),
		fu:           newFU(&cfg),
		sst:          runahead.NewSST(cfg.SSTSize),
		prdq:         runahead.NewPRDQ(cfg.PRDQSize),
		emq:          runahead.NewEMQ(cfg.EMQSize),
		preResumeSeq: -1,
		lastSkipSeq:  -1,
		chainWindow:  make([]uarch.Uop, 0, cfg.ROBSize),
		iqDirty:      true,
	}
	c.dispatchRun = make([]frontend.Slot, max(cfg.Width, cfg.RunaheadWidth))
	// Far (DRAM-latency) completions are bounded by the number of
	// outstanding misses the MSHRs allow; pre-sizing the heap keeps the
	// steady state allocation-free.
	c.events.far = make(eventHeap, 0, 256)
	// Per-preg waiter lists: sized so the deterministic test workloads
	// never outgrow them post-warmup (lists are drained to length 0 on
	// wake-up but keep their capacity, so growth is a high-water effect).
	const waiterCap = 64
	c.waiters = make([][]uopRef, 1+cfg.Rename.IntPRF+cfg.Rename.FPPRF)
	waiterBacking := make([]uopRef, len(c.waiters)*waiterCap)
	for i := range c.waiters {
		c.waiters[i] = waiterBacking[i*waiterCap : i*waiterCap : (i+1)*waiterCap]
	}
	for i := range c.events.near {
		c.events.near[i] = make([]completion, 0, 16)
	}
	c.sqDrainFn = func(e *sqEntry) bool {
		_, ok := c.hier.StoreCommit(e.addr, c.now)
		if !ok {
			// The retry attempt itself counts an MSHR stall each cycle.
			c.retryBlocked = true
		}
		return ok
	}
	c.renFree = c.ren.Free
	c.bindRetryCounters()
	return c, nil
}

// Stats returns the live stats block.
func (c *Core) Stats() *Stats { return c.stats }

// Hierarchy returns the memory system (for reports).
func (c *Core) Hierarchy() *mem.Hierarchy { return c.hier }

// Predictor returns the branch predictor (for reports).
func (c *Core) Predictor() *frontend.Predictor { return c.pred }

// FetchUnit returns the front end (for reports).
func (c *Core) FetchUnit() *frontend.FetchUnit { return c.fetch }

// SST returns the stalling slice table (for reports).
func (c *Core) SST() *runahead.SST { return c.sst }

// PRDQ returns the register deallocation queue (for reports).
func (c *Core) PRDQ() *runahead.PRDQ { return c.prdq }

// EMQ returns the extended micro-op queue (for reports).
func (c *Core) EMQ() *runahead.EMQ { return c.emq }

// Now returns the current cycle.
func (c *Core) Now() int64 { return c.now }

// AttachTelemetry wires a trace recorder into the core's hook sites (nil
// detaches). Attach after warmup/ResetStats so episode deltas are
// measured against the window's counters; the recorder tolerates an exit
// with no recorded entry (a warmup-spanning episode).
func (c *Core) AttachTelemetry(rec *telemetry.Recorder) { c.tel = rec }

// InRunahead reports whether a runahead episode is active.
func (c *Core) InRunahead() bool { return c.inRunahead }

// ResetStats opens a measurement window: core, memory, predictor and
// structure counters all restart; microarchitectural state is preserved.
func (c *Core) ResetStats() {
	c.stats.Reset()
	c.hier.ResetStats()
	c.pred.ResetStats()
	c.fetch.ResetStats()
	c.ren.ResetStats()
	c.sst.ResetStats()
	c.prdq.ResetStats()
	c.emq.ResetStats()
}

// Run advances the core until n more µops have committed, returning the
// cycles spent. It panics if the machine stops making progress (a model
// bug, not a workload property).
//
// Run is event-driven (skip.go): it jumps over inert cycles and amortizes
// steady retry spans, with statistics byte-identical to stepping every
// cycle (set DisableCycleSkip to verify).
func (c *Core) Run(n int64) int64 {
	start := c.now
	target := c.stats.Committed + n
	var p retryProof
	for c.stats.Committed < target {
		c.skipStep(&p)
		if c.now-c.lastProgress > watchdogCycles {
			panic(fmt.Sprintf("core: no commit in %d cycles at cycle %d (mode %v, runahead=%v, rob=%d/%d, iq=%d)",
				watchdogCycles, c.now, c.cfg.Mode, c.inRunahead, c.rob.len(), c.rob.cap(), c.iq.len()))
		}
	}
	return c.now - start
}

// watchdogCycles bounds commit-to-commit distance; DRAM worst cases are
// thousands of cycles, so a million means a wedged pipeline.
const watchdogCycles = 1_000_000

// Step advances the machine by one cycle.
//
//sim:hotpath
func (c *Core) Step() {
	c.progressed = false
	c.retryBlocked = false
	c.stalledFW = false

	// Runahead exit has priority: the stalling load returns this cycle.
	if c.inRunahead && c.now >= c.exitCycle {
		c.exitRunahead()
		c.progressed = true
	}

	c.completeStage()
	c.commitStage()
	c.issueStage()
	if sqBefore := c.sq.size; sqBefore > 0 {
		c.sq.drainHead(c.sqDrainFn)
		if c.sq.size != sqBefore {
			c.progressed = true
		}
	}
	c.dispatchStage()
	switch c.fetch.Cycle(c.now) {
	case frontend.CycleFetched, frontend.CycleLineMiss:
		c.progressed = true
	case frontend.CycleMSHRBlocked:
		c.retryBlocked = true
	}

	if c.inRunahead {
		c.stats.RunaheadCycles++
	}
	c.stats.Cycles++
	c.now++
}

// --- completion -----------------------------------------------------------

// slotRef returns both halves of a slot's struct-of-arrays record.
func (c *Core) slotRef(kind recKind, slot int) (*slotMeta, *uopRec) {
	if kind == kROB {
		return &c.rob.meta[slot], &c.rob.rec[slot]
	}
	return &c.pre.meta[slot], &c.pre.rec[slot]
}

// meta returns only the hot half — the 8-byte word probes touch.
func (c *Core) meta(kind recKind, slot int) *slotMeta {
	if kind == kROB {
		return &c.rob.meta[slot]
	}
	return &c.pre.meta[slot]
}

// enqueue admits a freshly dispatched µop into the issue queue: its
// not-yet-ready sources register in the waiter lists; with zero pending
// sources the entry goes straight onto the ready list.
func (c *Core) enqueue(kind recKind, slot int, m *slotMeta, r *uopRec) {
	c.iq.add(kind)
	ref := uopRef{seq: r.seq, kind: kind, slot: int32(slot), gen: m.gen}
	wait := uint8(0)
	if p := r.out.Src1P; p != rename.PRegNone && !c.ren.IsReady(p) {
		wait++
		c.waiters[p] = append(c.waiters[p], ref)
	}
	if p := r.out.Src2P; p != rename.PRegNone && !c.ren.IsReady(p) {
		wait++
		c.waiters[p] = append(c.waiters[p], ref)
	}
	m.srcWait = wait
	if wait == 0 {
		c.iq.markReady(ref)
		c.iqDirty = true
	}
}

// wake publishes p's data to its waiters: each live waiter's srcWait
// drops, and any that reach zero make the issue queue worth scanning.
// While a consumer sits unissued in the window, p cannot be freed and
// re-allocated (in-order commit and in-order PRDQ drain guarantee it), so
// readiness is monotone and a single wake per completion suffices; stale
// entries from squashed µops are rejected by the slot generation. Only
// slotMeta is touched per waiter (the uopRef carries the seq).
//
//sim:hotpath
func (c *Core) wake(p rename.PReg) {
	if p == rename.PRegNone {
		return
	}
	ws := c.waiters[p]
	if len(ws) == 0 {
		return
	}
	for i := range ws {
		w := &ws[i]
		m := c.meta(w.kind, int(w.slot))
		if m.gen == w.gen && m.st == sWaiting && m.srcWait > 0 {
			m.srcWait--
			if m.srcWait == 0 {
				c.iq.markReady(*w)
				c.iqDirty = true
			}
		}
	}
	c.waiters[p] = ws[:0]
}

// completeStage drains every completion due this cycle. The near-ring
// bucket for the current cycle is taken wholesale (one slice grab instead
// of one popDue probe per event plus a final miss), preserving popDue's
// LIFO-within-bucket order; far-heap events due now follow, as before.
func (c *Core) completeStage() {
	q := &c.events
	if q.nearCnt > 0 {
		bucket := &q.near[c.now&(eventRing-1)]
		if n := len(*bucket); n > 0 {
			c.progressed = true
			evs := *bucket
			for i := n - 1; i >= 0; i-- {
				c.completeOne(evs[i])
			}
			*bucket = evs[:0]
			q.nearCnt -= n
		}
	}
	for len(q.far) > 0 && q.far[0].cycle <= c.now {
		c.progressed = true
		c.completeOne(q.far.pop())
	}
}

//sim:hotpath
func (c *Core) completeOne(ev completion) {
	m, r := c.slotRef(ev.kind, int(ev.slot))
	if m.gen != ev.gen || m.st != sIssued {
		return // squashed
	}
	m.st = sDone
	c.stats.Completed++
	if r.hasDst() {
		if m.flags&fInvResult != 0 {
			c.ren.MarkPoisoned(r.out.DstP, true)
		} else {
			c.ren.MarkReady(r.out.DstP)
		}
		c.wake(r.out.DstP)
	}
	if r.isStore() && r.sqIdx >= 0 {
		c.sq.e[r.sqIdx].dataReady = true
	}
	if m.flags&fMispredicted != 0 {
		c.stats.BranchMispredicts++
		m.flags &^= fMispredicted
		switch {
		case c.inRunahead && c.cfg.Mode == ModeRABuffer:
			// Front-end is power-gated; nothing to redirect.
		case c.inRunahead && c.pseudoRetire && m.flags&fInvResult != 0:
			// An INV-source branch cannot actually be resolved:
			// traditional runahead wanders off the correct path. The
			// front-end stays frozen (no more useful µop supply) and
			// any still-queued runahead loads stop prefetching.
			c.raDiverged = true
			c.stats.DivergenceStops++
		default:
			c.fetch.Redirect(c.now + 1)
		}
	}
	if ev.kind == kPRE {
		if r.prdq >= 0 {
			c.prdq.MarkExecuted(r.prdq)
		}
		if m.flags&fLQHeld != 0 {
			c.lqPre--
			m.flags &^= fLQHeld
		}
		c.pre.release(int(ev.slot))
	}
}

// --- commit ---------------------------------------------------------------

//sim:hotpath
func (c *Core) commitStage() {
	if c.inRunahead && !c.pseudoRetire {
		return // PRE: no commits during runahead (Section 3.1)
	}
	// Batched head scan: measure the commit-eligible run in the hot meta
	// array (up to Width entries whose state is sDone), then retire it in
	// one pass over the cold records.
	n := c.cfg.Width
	if n > c.rob.size {
		n = c.rob.size
	}
	run := 0
	idx := c.rob.head
	for run < n && c.rob.meta[idx].st == sDone {
		run++
		idx++
		if idx == len(c.rob.meta) {
			idx = 0
		}
	}
	if run == 0 {
		return
	}
	released := int64(-1)
	idx = c.rob.head
	for k := 0; k < run; k++ {
		m, r := &c.rob.meta[idx], &c.rob.rec[idx]
		if r.isStore() && r.sqIdx >= 0 {
			c.sq.e[r.sqIdx].committed = true
		}
		if r.isLoad() && m.flags&fLQHeld != 0 {
			c.lqNorm--
			m.flags &^= fLQHeld
		}
		c.ren.Commit(r.dst, r.out.DstP)
		if c.pseudoRetire {
			c.stats.PseudoRetired++
		} else {
			c.stats.Committed++
			c.lastProgress = c.now
			if c.OnCommit != nil {
				c.OnCommit(r.seq)
			}
			released = r.seq // older µops are dead; release once below
		}
		m.gen++ // invalidate stale references (ring pop)
		idx++
		if idx == len(c.rob.meta) {
			idx = 0
		}
	}
	c.rob.head = idx
	c.rob.size -= run
	c.progressed = true
	if released >= 0 {
		c.stream.Release(released)
	}
}

// --- issue ------------------------------------------------------------------

//sim:hotpath
func (c *Core) issueStage() {
	if !c.iqDirty && !c.iqRetry {
		return // nothing became ready and nothing is retrying: no-op scan
	}
	// Per-cycle FU counters reset lazily, at scan time: cycles that skip
	// the scan issue nothing, so their counters are never read.
	c.fu.newCycle()
	c.iqDirty = false
	c.iqRetry = false
	// Single program-order pass over the ready list, compacting
	// issued/stale entries away. Source-pending µops are never visited:
	// their completion wake-up files them here.
	out := c.iq.ready[:0]
	for _, ref := range c.iq.ready {
		m, r := c.slotRef(ref.kind, int(ref.slot))
		if m.gen != ref.gen || m.st != sWaiting {
			c.progressed = true // squashed under us; occupancy was reset by the flush
			continue
		}
		if c.tryIssueRec(ref.kind, int(ref.slot), m, r) {
			c.iq.issued(ref.kind)
			c.progressed = true
			continue
		}
		out = append(out, ref)
	}
	c.iq.ready = out
}

// tryIssueRec attempts to issue one µop whose sources are all ready
// (srcWait == 0, maintained by the wake-up lists); it returns true when
// the µop left the IQ.
//
//sim:hotpath
func (c *Core) tryIssueRec(kind recKind, slot int, m *slotMeta, r *uopRec) bool {
	// INV propagation (traditional runahead semantics): a runahead µop
	// with a poisoned source completes immediately with a poisoned result
	// and performs no memory access.
	inv := m.flags&fInRunahead != 0 &&
		(c.ren.IsPoisoned(r.out.Src1P) || c.ren.IsPoisoned(r.out.Src2P))

	if !c.fu.tryIssue(r.class, c.now) {
		// Ready sources but no unit (per-cycle capacity or a busy
		// divider): the retry outcome depends on the cycle number.
		c.retryBlocked = true
		c.iqRetry = true
		return false
	}
	switch {
	case inv:
		m.flags |= fInvResult
		r.readyAt = c.now + 1
		c.stats.RunaheadINV++
	case r.isLoad():
		ready, invLoad, ok := c.issueLoad(m, r)
		if !ok {
			// Port consumed but the access could not start (forwarding
			// data pending or MSHRs full): retry next cycle. The failed
			// attempt mutated memory-system stall counters, so the cycle
			// is not skippable.
			c.retryBlocked = true
			c.iqRetry = true
			return false
		}
		r.readyAt = ready
		if invLoad {
			m.flags |= fInvResult
		}
	default:
		// Stores do address generation + data capture here; the memory
		// write happens at commit via the store queue.
		r.readyAt = c.now + classLatency[r.class]
	}
	m.st = sIssued
	c.events.schedule(c.now, completion{cycle: r.readyAt, kind: kind, slot: int32(slot), gen: m.gen})
	c.countIssue(r.class)
	if m.flags&fInRunahead != 0 {
		c.stats.RunaheadExecuted++
	}
	if kind == kPRE && r.prdq >= 0 {
		// The PRDQ "execute" bit guards freeing the µop's PREVIOUS
		// destination mapping, which only requires that this µop has read
		// its sources — true once it issues. Waiting for a slice load's
		// fill instead would head-of-line-block reclamation for the whole
		// memory latency and strangle runahead's register supply.
		c.prdq.MarkExecuted(r.prdq)
	}
	return true
}

// issueLoad starts a load's memory access, returning its data-ready cycle
// and whether the result is INV (runahead load that would wait on DRAM).
//
//sim:hotpath
func (c *Core) issueLoad(m *slotMeta, r *uopRec) (ready int64, inv, ok bool) {
	// Traditional runahead never waits (Mutlu): in pseudo-retire mode a
	// load either gets its data quickly, or it starts a prefetch and
	// completes immediately with an INV result — including when no MSHR is
	// even available to start one. PRE instead executes slices with real
	// data (dependent slice loads need loaded values as addresses), so its
	// runahead loads wait for actual fills and retry on structural hazards.
	inRunahead := m.flags&fInRunahead != 0
	neverWait := c.pseudoRetire && inRunahead

	// Store-to-load forwarding from older in-flight stores.
	if found, dataReady := c.sq.forwardFrom(r.seq, r.addr, r.size); found {
		if !dataReady {
			if neverWait {
				return c.now + 1, true, true
			}
			return 0, false, false // store data not captured yet; retry
		}
		return c.now + int64(c.hier.L1D().HitLatency()), false, true
	}
	var res mem.Result
	if inRunahead {
		if c.raDiverged {
			// Off the correct path after an unresolvable mispredict:
			// addresses are no longer trustworthy, so stop prefetching.
			return c.now + 1, true, true
		}
		res, ok = c.hier.Prefetch(r.addr, c.now)
		if ok {
			c.stats.Prefetches++
		}
	} else {
		res, ok = c.hier.LoadPC(r.addr, r.pc, c.now)
	}
	if !ok {
		if neverWait {
			return c.now + 1, true, true // prefetch dropped; do not stall
		}
		return 0, false, false // MSHRs exhausted; retry
	}
	// "Long latency" includes merges onto still-in-flight lines, which
	// report the level they hit but carry the fill's completion time.
	if neverWait && res.Ready > c.now+int64(c.cfg.Mem.L3.HitLatency) {
		return c.now + 1, true, true
	}
	return res.Ready, false, true
}

func (c *Core) countIssue(class uarch.Class) {
	switch class {
	case uarch.ClassLoad:
		c.stats.IssuedLoad++
	case uarch.ClassStore:
		c.stats.IssuedStore++
	case uarch.ClassFPAdd, uarch.ClassFPMul, uarch.ClassFPDiv:
		c.stats.IssuedFPU++
	case uarch.ClassBranch, uarch.ClassJump, uarch.ClassCall, uarch.ClassReturn:
		c.stats.IssuedBranch++
	default:
		c.stats.IssuedALU++
	}
}

// --- dispatch ----------------------------------------------------------------

// µop sources feeding dispatchStage.
const (
	srcDecode = iota // the decode pipe: normal mode, RA and PRE runahead
	srcEMQ           // PRE+EMQ re-dispatching buffered µops after an exit
	srcReplay        // RA-buffer: the runahead buffer replaying the chain
)

// dispatchStage is the one dispatch loop every mechanism shares. The µop
// source is chosen once per cycle. Each µop is admitted by dispatchOne
// when it takes a ROB slot, or in PRE runahead by admitRunahead (the SST
// filter plus preExecute). The cycle ends by consuming what was admitted
// from the source, and decode counting happens there: decode-pipe and
// replayed µops count as decoded, EMQ µops skip decode.
//
//sim:hotpath
func (c *Core) dispatchStage() {
	pre := c.inRunahead && (c.cfg.Mode == ModePRE || c.cfg.Mode == ModePREEMQ)
	src, width := srcDecode, c.cfg.Width
	switch {
	case pre:
		width = c.cfg.RunaheadWidth
	case c.inRunahead && c.cfg.Mode == ModeRABuffer:
		src = srcReplay
	case c.emqDraining:
		src = srcEMQ
	}
	n := 0 // µops ready in the decode pipe or the EMQ
	switch {
	case pre && c.preScanStop, src == srcReplay && (c.replayDead || c.now < c.replayStart):
		width = 0
	case src == srcDecode:
		n = c.fetch.ReadyRun(c.now, c.dispatchRun[:width])
	case src == srcEMQ:
		n = min(c.emq.Len(), width)
	}

	k := 0 // µops admitted this cycle
loop:
	for k < width {
		var seq int64
		misp := false
		switch src {
		case srcDecode:
			// Read past the ready run when k == n; tested below.
			seq, misp = c.dispatchRun[k].Seq, c.dispatchRun[k].Mispredicted
		case srcEMQ:
			if k == n {
				c.emqDraining = false
				c.progressed = true
				break loop
			}
			seq = c.emq.At(k)
		case srcReplay:
			// Iterations are prepared lazily: preparing overwrites
			// replayPending, so never ahead of admission.
			if c.replayIdx >= len(c.replayPending) {
				c.progressed = true // the stream scan mutates replay state either way
				if !c.prepareReplayIteration() {
					break loop
				}
			}
			seq = c.replayPending[c.replayIdx]
		}
		if pre {
			if k == n || !c.admitRunahead(seq, misp) {
				break
			}
			k++
			if c.preScanStop {
				break // divergence stop, after the µop that caused it
			}
			continue
		}
		// The ROB test precedes the decode pipe's availability test
		// (k == n), so a full window is reported even with nothing
		// ready; the EMQ and replay sources test availability first.
		if c.rob.full() {
			if !c.inRunahead {
				c.onFullWindow()
			}
			break
		}
		if (src == srcDecode && k == n) || !c.dispatchOne(seq, misp) {
			break
		}
		k++
		if src == srcReplay {
			c.replayIdx++
		}
	}

	switch src {
	case srcDecode:
		c.fetch.PopN(k)
		c.stats.Decoded += int64(k)
		if pre && k > 0 && c.preResumeSeq < 0 {
			c.preResumeSeq = c.dispatchRun[0].Seq
		}
	case srcEMQ:
		c.emq.PopN(k)
		c.stats.EMQDispatched += int64(k)
	case srcReplay:
		c.stats.Decoded += int64(k)
	}
	// PRE frees runahead registers as the PRDQ drains in order.
	if pre && c.prdq.Drain(c.renFree) > 0 {
		c.progressed = true // freed registers can unblock dispatch
	}
}

// dispatchOne admits one µop into the back end (ROB path); it returns
// false if a resource is unavailable (retry next cycle). In RA and
// RA-buffer runahead the µop is tagged for prefetch semantics and
// pseudo-retirement.
//
//sim:hotpath
func (c *Core) dispatchOne(seq int64, mispredicted bool) bool {
	u := c.stream.At(seq)
	if c.iq.full() || !c.ren.CanRename(u.Dst) {
		return false
	}
	if u.IsLoad() && c.lqNorm+c.lqPre >= c.cfg.LQSize {
		return false
	}
	if u.IsStore() && c.sq.full() {
		return false
	}

	out, ok := c.ren.Rename(u, c.inRunahead)
	if !ok {
		return false
	}
	idx := c.rob.push()
	m, r := &c.rob.meta[idx], &c.rob.rec[idx]
	m.st = sWaiting // gen is preserved across slot reuse
	m.flags = 0
	if mispredicted {
		m.flags = fMispredicted
	}
	if c.inRunahead {
		m.flags |= fInRunahead
	}
	r.seq = u.Seq
	r.pc = u.PC
	r.addr = u.Addr
	r.out = out
	r.prdq = -1
	r.sqIdx = -1
	r.class = u.Class
	r.dst = u.Dst
	r.size = u.Size
	if u.IsLoad() {
		c.lqNorm++
		m.flags |= fLQHeld
	}
	if u.IsStore() {
		r.sqIdx = int32(c.sq.push(u.Seq, u.Addr, u.Size, c.inRunahead))
	}
	c.enqueue(kROB, idx, m, r)
	c.stats.Renamed++
	c.stats.Dispatched++
	if c.measuringRefill {
		c.refillDispatched++
		if c.refillDispatched >= int64(c.cfg.ROBSize) {
			c.stats.RefillPenalty.Observe(float64(c.now - c.refillFrom))
			c.measuringRefill = false
		}
	}

	// PRE's SST learns in normal mode too: every decoded µop probes the
	// SST; hits pull their producers' PCs in (Section 3.2).
	if c.cfg.Mode == ModePRE || c.cfg.Mode == ModePREEMQ {
		if c.sst.Lookup(u.PC) {
			c.learnProducers(u)
		}
	}
	c.progressed = true
	return true
}

// learnProducers inserts the PCs of u's source producers into the SST,
// using the RAT's last-producer-PC extension.
func (c *Core) learnProducers(u *uarch.Uop) {
	for _, src := range [2]uarch.Reg{u.Src1, u.Src2} {
		if src == uarch.RegNone {
			continue
		}
		if pc := c.ren.ProducerPC(src); pc != 0 {
			c.sst.Insert(pc)
		}
	}
}

// onFullWindow runs once per cycle when dispatch is blocked by a full ROB;
// it accounts the stall and may trigger a runahead entry.
func (c *Core) onFullWindow() {
	m := &c.rob.meta[c.rob.head]
	if m.st == sDone {
		return // commit-bandwidth limited, not a stall
	}
	c.stats.FullWindowStallCycles++
	c.stats.RobFullEvents++
	// A stall cycle repeats identically until the head's completion event:
	// flag it so skipped cycles replicate these counters in bulk.
	c.stalledFW = true
	if c.tel != nil {
		c.tel.FullWindowStall(c.now)
	}
	c.maybeEnterRunahead(m, &c.rob.rec[c.rob.head])
}
