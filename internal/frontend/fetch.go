package frontend

import (
	"math"

	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// FetchConfig sizes the fetch/decode pipe.
type FetchConfig struct {
	// Width is the number of µops the front-end delivers per cycle. The
	// paper's methodology assumes delivery of up to 8 µops/cycle (the
	// µop-cache path) — this feeds PRE's 8-wide runahead SST filter, while
	// normal-mode throughput stays bounded by the core's 4-wide
	// rename/dispatch/commit (Table 1).
	Width int
	// Depth is the number of front-end pipeline stages between fetch and
	// rename (Table 1: 8); a fetched µop becomes available for decode/
	// rename Depth cycles later, so every redirect costs a Depth-cycle
	// refill bubble.
	Depth int
	// QueueSize bounds the decoded micro-op queue (backpressure point).
	QueueSize int
}

// DefaultFetchConfig returns the Table 1 front end (see Width for the
// 8-µop delivery assumption).
func DefaultFetchConfig() FetchConfig {
	return FetchConfig{Width: 8, Depth: 8, QueueSize: 64}
}

// Slot is one fetched µop waiting in the decode pipe / µop queue.
type Slot struct {
	// Seq is the dynamic sequence number (resolve via the trace Stream).
	Seq int64
	// Ready is the cycle the µop reaches the decode/rename boundary.
	Ready int64
	// Mispredicted marks a control µop whose prediction was wrong; the
	// fetch unit froze immediately after fetching it.
	Mispredicted bool
}

// neverThaw freezes fetch until an explicit redirect.
const neverThaw = math.MaxInt64

// Stats counts front-end activity for the energy model and reports.
type Stats struct {
	FetchedUops   int64
	ICacheStallCy int64
	FreezeCycles  int64 // cycles fetch was frozen on a mispredict or rewind
}

// FetchUnit models fetch through decode. It follows the true-path trace,
// freezing on mispredictions until the core calls Redirect, and supports
// the rewind needed when traditional runahead flushes the pipeline.
type FetchUnit struct {
	cfg    FetchConfig
	stream *trace.Stream
	pred   *Predictor
	hier   *mem.Hierarchy

	nextSeq     int64
	frozenUntil int64

	// queue is a fixed-capacity ring of fetched µops (decode pipe + µop
	// queue); qHead/qLen index it. A ring (rather than a shifted slice)
	// keeps PopN O(1) — with up to Width pops per cycle, slice shifting
	// was a measurable share of the simulator's hot path.
	queue []Slot
	qHead int
	qLen  int

	curLine   uint64 // I-cache line currently being fetched from
	lineReady int64  // when the current line's fetch completes

	stats Stats
}

// NewFetchUnit builds a fetch unit reading from stream, predicting with
// pred and fetching instructions through hier's L1I.
func NewFetchUnit(cfg FetchConfig, stream *trace.Stream, pred *Predictor, hier *mem.Hierarchy) *FetchUnit {
	if cfg.Width <= 0 || cfg.Depth <= 0 || cfg.QueueSize <= 0 {
		panic("frontend: non-positive fetch geometry")
	}
	return &FetchUnit{
		cfg:     cfg,
		stream:  stream,
		pred:    pred,
		hier:    hier,
		queue:   make([]Slot, cfg.QueueSize),
		curLine: ^uint64(0),
	}
}

// Stats returns a copy of the counters.
func (f *FetchUnit) Stats() Stats { return f.stats }

// ResetStats zeroes the counters.
func (f *FetchUnit) ResetStats() { f.stats = Stats{} }

// Counters returns the live counters; ResetStats zeroes them in place.
func (f *FetchUnit) Counters() *Stats { return &f.stats }

// NextSeq returns the sequence number fetch will read next.
func (f *FetchUnit) NextSeq() int64 { return f.nextSeq }

// Frozen reports whether fetch is currently stalled on a mispredict or an
// explicit rewind at the given cycle.
func (f *FetchUnit) Frozen(now int64) bool { return f.frozenUntil > now }

// QueueLen returns the number of µops in the pipe/queue.
func (f *FetchUnit) QueueLen() int { return f.qLen }

// CycleStatus summarizes what one fetch Cycle did, so the core's
// event-driven cycle skipper can classify the cycle: active statuses
// (CycleFetched, CycleLineMiss, CycleMSHRBlocked) mutate machine or
// statistics state every cycle and forbid skipping; passive statuses
// (CycleFrozen, CycleLineWait, CycleIdle) repeat identically until a known
// wake-up cycle and are replicable in bulk via SkipIdle.
type CycleStatus uint8

// Fetch cycle outcomes.
const (
	// CycleIdle: nothing to do (µop queue full); no state or counter
	// changed.
	CycleIdle CycleStatus = iota
	// CycleFetched: at least one µop entered the pipe.
	CycleFetched
	// CycleFrozen: fetch is frozen (mispredict/rewind); FreezeCycles
	// counted.
	CycleFrozen
	// CycleLineWait: waiting on an in-flight I-cache line; ICacheStallCy
	// counted.
	CycleLineWait
	// CycleLineMiss: this cycle started an I-cache line fetch (memory
	// state changed); fetch resumes when the line arrives.
	CycleLineMiss
	// CycleMSHRBlocked: the I-cache rejected the fetch for lack of MSHRs;
	// the retry itself is a counted event every cycle.
	CycleMSHRBlocked
)

// Cycle fetches up to Width µops at cycle now, pushing them into the pipe.
// The returned status classifies the cycle for the core's cycle skipper.
func (f *FetchUnit) Cycle(now int64) CycleStatus {
	if f.frozenUntil > now {
		f.stats.FreezeCycles++
		return CycleFrozen
	}
	if f.lineReady > now {
		f.stats.ICacheStallCy++
		return CycleLineWait
	}
	budget := f.cfg.Width
	if room := f.cfg.QueueSize - f.qLen; room < budget {
		budget = room
	}
	if budget <= 0 {
		return CycleIdle
	}
	ready := now + int64(f.cfg.Depth)
	tail := f.qHead + f.qLen
	if tail >= len(f.queue) {
		tail -= len(f.queue)
	}
	fetched := false
	for budget > 0 {
		// One Span call per cycle (two across a ring wrap) replaces one
		// stream.At per µop. No stream access happens inside the loop, so
		// the aliased span stays valid.
		span := f.stream.Span(f.nextSeq, int64(budget))
		for i := range span {
			u := &span[i]
			line := uarch.LineAddr(u.PC)
			if line != f.curLine {
				res, ok := f.hier.Fetch(line, now)
				if !ok {
					// I-cache MSHRs exhausted: retry next cycle.
					f.stats.ICacheStallCy++
					return CycleMSHRBlocked
				}
				f.curLine = line
				if res.Ready > now+int64(f.hier.L1I().HitLatency()) {
					// Line miss: fetch resumes when the line arrives.
					f.lineReady = res.Ready
					return CycleLineMiss
				}
			}
			correct := true
			if u.IsBranch() {
				correct = f.pred.PredictAndTrain(u)
			}
			f.queue[tail] = Slot{
				Seq:          f.nextSeq,
				Ready:        ready,
				Mispredicted: !correct,
			}
			tail++
			if tail == len(f.queue) {
				tail = 0
			}
			f.qLen++
			f.nextSeq++
			f.stats.FetchedUops++
			fetched = true
			budget--
			if !correct {
				// Freeze until the core redirects after the branch resolves.
				f.frozenUntil = neverThaw
				return CycleFetched
			}
		}
	}
	if fetched {
		return CycleFetched
	}
	return CycleIdle
}

// NextWakeAt returns the first cycle after now at which a currently
// stalled fetch unit could resume (thaw or line arrival). ok=false means
// fetch is either not time-blocked or frozen indefinitely (awaiting an
// explicit Redirect/Rewind).
func (f *FetchUnit) NextWakeAt(now int64) (int64, bool) {
	if f.frozenUntil > now {
		if f.frozenUntil == neverThaw {
			return 0, false
		}
		return f.frozenUntil, true
	}
	if f.lineReady > now {
		return f.lineReady, true
	}
	return 0, false
}

// HeadReadyAt returns the cycle the oldest queued µop clears the decode
// pipe (ok=false when the queue is empty).
func (f *FetchUnit) HeadReadyAt() (int64, bool) {
	if f.qLen == 0 {
		return 0, false
	}
	return f.queue[f.qHead].Ready, true
}

// SkipIdle accounts n skipped cycles starting at now, replicating exactly
// the per-cycle counters Cycle would have incremented. The caller (the
// core's cycle skipper) guarantees the fetch unit's stall class does not
// change over the skipped span: when frozen, now+n does not exceed
// frozenUntil; when waiting on a line, it does not exceed lineReady.
func (f *FetchUnit) SkipIdle(now, n int64) {
	switch {
	case f.frozenUntil > now:
		f.stats.FreezeCycles += n
	case f.lineReady > now:
		f.stats.ICacheStallCy += n
	}
}

// ReadyRun copies into dst the leading run of queued µops that have
// cleared the decode pipe by cycle now, without removing them, and returns
// the run length. Ready times are nondecreasing along the queue (fetch
// cycles are, and the pipe depth is fixed), so the run is every µop that
// has cleared the pipe, oldest first. The dispatcher reads the run once
// per cycle and retires what it consumed with PopN.
func (f *FetchUnit) ReadyRun(now int64, dst []Slot) int {
	n := f.qLen
	if n > len(dst) {
		n = len(dst)
	}
	run := 0
	idx := f.qHead
	for run < n && f.queue[idx].Ready <= now {
		dst[run] = f.queue[idx]
		run++
		idx++
		if idx == len(f.queue) {
			idx = 0
		}
	}
	return run
}

// PopN removes the k oldest µops. k must not exceed the length of the
// run returned by the preceding ReadyRun call.
func (f *FetchUnit) PopN(k int) {
	if k <= 0 {
		return
	}
	f.qHead += k
	if f.qHead >= len(f.queue) {
		f.qHead -= len(f.queue)
	}
	f.qLen -= k
}

// Redirect unfreezes fetch at the given cycle (mispredicted branch
// resolved). Fetch continues from where it stopped — the µop after the
// mispredicted branch, which is the true path.
func (f *FetchUnit) Redirect(resume int64) {
	if f.frozenUntil == neverThaw || f.frozenUntil < resume {
		f.frozenUntil = resume
	}
}

// Bubble freezes fetch for a fixed number of cycles from now (used for
// runahead-mode mispredictions that are never resolved by execution).
func (f *FetchUnit) Bubble(now, cycles int64) {
	if f.frozenUntil == neverThaw {
		f.frozenUntil = now + cycles
	} else if now+cycles > f.frozenUntil {
		f.frozenUntil = now + cycles
	}
}

// Rewind discards the entire pipe and restarts fetch at seq, resuming at
// the given cycle. Traditional runahead and the runahead buffer use this
// at runahead exit (re-fetch from the stalling load); PRE uses it to
// re-fetch the µops it consumed during runahead.
func (f *FetchUnit) Rewind(seq, resume int64) {
	f.qHead, f.qLen = 0, 0
	f.nextSeq = seq
	f.frozenUntil = resume
	f.curLine = ^uint64(0)
	f.lineReady = 0
}

// Freeze stops fetch entirely until Redirect/Rewind (runahead-buffer mode
// power-gates the front-end during runahead).
func (f *FetchUnit) Freeze() { f.frozenUntil = neverThaw }

// --- full-state snapshot (E6 ablation support) ---------------------------

// FetchSnapshot captures the fetch unit's state for the E6 ablation.
type FetchSnapshot struct {
	nextSeq     int64
	frozenUntil int64
	queue       []Slot
	curLine     uint64
	lineReady   int64
}

// TakeSnapshotInto deep-copies the fetch state into s, reusing s's queue
// buffer — the allocation-free variant for the per-episode snapshot the
// E6 ablation takes at every runahead entry. The ring is linearized in
// FIFO order.
func (f *FetchUnit) TakeSnapshotInto(s *FetchSnapshot) {
	s.nextSeq = f.nextSeq
	s.frozenUntil = f.frozenUntil
	s.queue = s.queue[:0]
	for i := 0; i < f.qLen; i++ {
		s.queue = append(s.queue, f.queue[(f.qHead+i)%len(f.queue)])
	}
	s.curLine = f.curLine
	s.lineReady = f.lineReady
}

// RestoreSnapshot restores a TakeSnapshot copy; fetch resumes no earlier
// than the given cycle.
func (f *FetchUnit) RestoreSnapshot(s *FetchSnapshot, resume int64) {
	f.nextSeq = s.nextSeq
	f.frozenUntil = s.frozenUntil
	if f.frozenUntil != neverThaw && f.frozenUntil < resume {
		f.frozenUntil = resume
	}
	f.qHead, f.qLen = 0, copy(f.queue, s.queue)
	f.curLine = s.curLine
	f.lineReady = s.lineReady
}
