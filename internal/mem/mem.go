// Package mem wires the cache levels and the DRAM model into the memory
// hierarchy of Table 1: split 32 KB L1I / 32 KB L1D, a private 256 KB L2,
// a 1 MB shared L3, and DDR3-1600 main memory.
//
// The hierarchy implements the multi-level access protocol: demand loads
// and instruction fetches walk down until they hit, allocate MSHRs at each
// missing level, and fill lines upward with the appropriate arrival times.
// Runahead prefetches use the same path (so they consume real MSHR, bank
// and bus resources — the contention that bounds runahead's usable MLP)
// but are tagged so coverage statistics can distinguish them.
//
// Hardware prefetchers (internal/prefetch) hang off the L1I, the L1D and
// the L2: the L1I prefetcher observes the instruction-fetch stream, the
// L1D prefetcher observes the demand-load stream, the L2 prefetcher
// observes the data traffic that reaches the L2. Their requests walk the
// same multi-level path as demand and runahead traffic — consuming the
// same MSHRs, DRAM banks and bus slots — but carry their own fill tag
// (cache.SrcHW), so runahead coverage and hardware-prefetch accuracy are
// separately attributable.
//
// Two adaptive pieces close the loop between the engines and the rest of
// the machine. The PRE-aware filter (Config.RunaheadFilter) drops
// hardware prefetch requests whose line already has an in-flight
// runahead-tagged MSHR at any level, counting them separately
// (PFStats.FilteredRA) — the direct measurement of the interference term
// between runahead requests and HW prefetch traffic. And engines
// configured with a ThrottleEpoch receive epoch-sampled accuracy/late
// feedback (prefetch.Adaptive) from their fill level's lifetime counters,
// which drives their effective-degree throttling.
//
// Latency convention: a hit at level k costs the sum of the hit latencies
// of levels 1..k (L1 4, L2 4+8, L3 4+8+30 for data), matching how Sniper
// composes its load-to-use latencies from Table 1.
package mem

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/prefetch"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Level identifies where an access was served.
type Level uint8

// Hierarchy levels.
const (
	// LevelL1 is a first-level hit (L1D for loads, L1I for fetches).
	LevelL1 Level = 1
	// LevelL2 is a second-level hit.
	LevelL2 Level = 2
	// LevelL3 is a last-level-cache hit.
	LevelL3 Level = 3
	// LevelMem is a DRAM access.
	LevelMem Level = 4
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelMem:
		return "MEM"
	default:
		return fmt.Sprintf("level(%d)", uint8(l))
	}
}

// Config collects the per-level configurations.
type Config struct {
	L1I, L1D, L2, L3 cache.Config
	DRAM             dram.Config

	// L1IPrefetch configures the hardware prefetcher observing the
	// instruction-fetch stream at the L1I (prefetch.KindNone disables it,
	// the default) — front-end-bound workloads' PF coverage.
	L1IPrefetch prefetch.Config
	// L1DPrefetch configures the hardware prefetcher observing demand
	// loads at the L1D (prefetch.KindNone disables it, the default).
	L1DPrefetch prefetch.Config
	// L2Prefetch configures the hardware prefetcher observing data
	// traffic at the L2; its fills stop at the L2/L3.
	L2Prefetch prefetch.Config
	// RunaheadFilter enables the PRE-aware prefetch filter: hardware
	// prefetch requests whose line already has an in-flight
	// runahead-tagged MSHR (at the engine's level or deeper) are dropped
	// and counted in PFStats.FilteredRA instead of being issued or lumped
	// into Redundant.
	RunaheadFilter bool
}

// Default returns the paper's Table 1 memory hierarchy. MSHR counts are
// Haswell-generation (10 L1D line-fill buffers, a 16-entry L2 superqueue);
// they bound the memory-level parallelism any mechanism — demand window or
// runahead prefetching — can expose, which is what keeps the runahead
// buffer's deep single-chain replay from outrunning its fair share.
// Hardware prefetchers are disabled by default; the PF-augmented
// configurations enable them per level.
func Default() Config {
	return Config{
		L1I:  cache.Config{Name: "L1I", SizeBytes: 32 << 10, Assoc: 4, HitLatency: 2, MSHRs: 8},
		L1D:  cache.Config{Name: "L1D", SizeBytes: 32 << 10, Assoc: 8, HitLatency: 4, MSHRs: 10},
		L2:   cache.Config{Name: "L2", SizeBytes: 256 << 10, Assoc: 8, HitLatency: 8, MSHRs: 16},
		L3:   cache.Config{Name: "L3", SizeBytes: 1 << 20, Assoc: 16, HitLatency: 30, MSHRs: 32},
		DRAM: dram.Default(),
	}
}

// Validate checks every level.
func (c *Config) Validate() error {
	for _, cc := range []*cache.Config{&c.L1I, &c.L1D, &c.L2, &c.L3} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	for _, pc := range []*prefetch.Config{&c.L1IPrefetch, &c.L1DPrefetch, &c.L2Prefetch} {
		if err := pc.Validate(); err != nil {
			return err
		}
	}
	return c.DRAM.Validate()
}

// Result describes a completed (issued) memory access.
type Result struct {
	// Ready is the core cycle at which the data is usable.
	Ready int64
	// Level is where the access was served from.
	Level Level
}

// PFStats aggregates one hardware prefetcher's issue-side counters with
// the usefulness counters its fill level accumulated. Derived metrics
// follow the standard definitions: accuracy (what fraction of issued
// prefetches turned into demand hits), coverage (what fraction of the
// would-be demand misses the prefetcher absorbed) and timeliness (what
// fraction of the useful prefetches had fully arrived when demanded).
type PFStats struct {
	// Issued counts prefetch requests injected into the hierarchy.
	Issued int64
	// Dropped counts requests rejected because no MSHR was free.
	Dropped int64
	// Redundant counts requests whose target line was already cached or
	// in flight (other than runahead-in-flight when the filter is on).
	Redundant int64
	// FilteredRA counts requests dropped by the PRE-aware filter because
	// their line already had an in-flight runahead-tagged MSHR — the
	// directly-measured interference term between HW prefetch traffic and
	// runahead requests. Zero when Config.RunaheadFilter is off (such
	// duplicates then issue or land in Redundant, as hardware without the
	// filter would behave).
	FilteredRA int64
	// Overflowed counts requests the engine generated but discarded
	// because its pending queue was full — coverage lost before the
	// hierarchy ever saw the request.
	Overflowed int64
	// Fills counts lines the prefetcher installed at its fill level.
	Fills int64
	// Useful counts demand hits on prefetched lines.
	Useful int64
	// Late counts useful hits that still waited on the in-flight fill.
	Late int64
	// DemandMisses counts demand misses at the fill level — the coverage
	// denominator's "missed anyway" term.
	DemandMisses int64
}

// Add accumulates o into s (for combining per-level prefetcher stats).
func (s PFStats) Add(o PFStats) PFStats {
	return PFStats{
		Issued:       s.Issued + o.Issued,
		Dropped:      s.Dropped + o.Dropped,
		Redundant:    s.Redundant + o.Redundant,
		FilteredRA:   s.FilteredRA + o.FilteredRA,
		Overflowed:   s.Overflowed + o.Overflowed,
		Fills:        s.Fills + o.Fills,
		Useful:       s.Useful + o.Useful,
		Late:         s.Late + o.Late,
		DemandMisses: s.DemandMisses + o.DemandMisses,
	}
}

// Accuracy returns Useful/Issued (0 when nothing was issued).
func (s PFStats) Accuracy() float64 {
	return stats.Ratio(float64(s.Useful), float64(s.Issued))
}

// Coverage returns Useful/(Useful+DemandMisses): the fraction of would-be
// misses at the fill level the prefetcher converted into hits.
func (s PFStats) Coverage() float64 {
	return stats.Ratio(float64(s.Useful), float64(s.Useful+s.DemandMisses))
}

// Timeliness returns the fraction of useful prefetches whose data had
// fully arrived by the time demand consumed them.
func (s PFStats) Timeliness() float64 {
	return stats.Ratio(float64(s.Useful-s.Late), float64(s.Useful))
}

// pfCounters is the mutable issue-side counter block per prefetcher.
type pfCounters struct {
	issued, dropped, redundant, filteredRA int64
}

// engine binds one hardware prefetcher to its level: the prefetcher, its
// measurement-window issue counters, and the never-reset feedback state
// the adaptive throttle consumes. pf is nil when the level has no engine.
type engine struct {
	pf prefetch.Prefetcher
	ad prefetch.Adaptive // non-nil when pf adapts to feedback
	// level labels the engine's observing level ("l1i", "l1d", "l2") in
	// telemetry events; it carries no simulation meaning.
	level string
	// epoch is the feedback sampling interval in training observations
	// (Config.ThrottleEpoch; 0 = never sample).
	epoch int64
	cnt   pfCounters
	// overflowBase is the engine's cumulative overflow count at the last
	// stats reset; the window's Overflowed is the difference.
	overflowBase int64
	// lifeObserves and lifeIssued are lifetime counters (never reset —
	// adaptation must be oblivious to measurement windows).
	lifeObserves, lifeIssued int64
}

func newEngine(cfg prefetch.Config, level string) engine {
	e := engine{pf: cfg.New(), level: level, epoch: int64(cfg.ThrottleEpoch)}
	e.ad, _ = e.pf.(prefetch.Adaptive)
	return e
}

// observed accounts one training observation and, on an epoch boundary,
// pushes the cumulative feedback sample (issue counts plus the fill
// level's lifetime usefulness counters) to an adaptive engine. now is the
// core cycle of the observation, used only to timestamp the telemetry
// throttle-decision event; the feedback itself is cycle-oblivious.
func (e *engine) observed(h *Hierarchy, fillLevel *cache.Cache, now int64) {
	h.pfObserves++
	e.lifeObserves++
	if e.epoch > 0 && e.ad != nil && e.lifeObserves%e.epoch == 0 {
		useful, late := fillLevel.LifetimeHWPref()
		f := prefetch.Feedback{Issued: e.lifeIssued, Useful: useful, Late: late}
		if h.tel != nil {
			// Sample the effective degree around the feedback call so the
			// trace shows every throttle decision, including holds.
			if dr, ok := e.ad.(prefetch.DegreeReporter); ok {
				before := dr.Degree()
				e.ad.Feedback(f)
				h.tel.Throttle(now, e.level, before, dr.Degree(),
					stats.Ratio(float64(f.Useful), float64(f.Issued)))
				return
			}
		}
		e.ad.Feedback(f)
	}
}

// windowStats assembles the engine's measurement-window PFStats against
// its fill level's counters. With no engine configured the issue-side
// counters are zero and only the level's own demand/fill statistics
// carry through (the historical per-level behavior).
func (e *engine) windowStats(fillLevel *cache.Cache) PFStats {
	cs := fillLevel.Stats()
	s := PFStats{
		Issued: e.cnt.issued, Dropped: e.cnt.dropped,
		Redundant: e.cnt.redundant, FilteredRA: e.cnt.filteredRA,
		Fills: cs.HWPrefFills, Useful: cs.HWPrefUseful, Late: cs.HWPrefLate,
		DemandMisses: cs.Misses,
	}
	if e.pf != nil {
		s.Overflowed = e.pf.Overflowed() - e.overflowBase
	}
	return s
}

// resetWindow opens a new measurement window: issue counters restart and
// the overflow baseline re-anchors; lifetime feedback state survives.
func (e *engine) resetWindow() {
	e.cnt = pfCounters{}
	if e.pf != nil {
		e.overflowBase = e.pf.Overflowed()
	}
}

// Hierarchy is the assembled memory system. Not safe for concurrent use.
type Hierarchy struct {
	cfg Config
	l1i *cache.Cache
	l1d *cache.Cache
	l2  *cache.Cache
	l3  *cache.Cache
	ram *dram.DRAM

	// Hardware prefetch engines per observing level (pf nil when
	// disabled).
	pfI, pfD, pf2 engine

	// tel is the optional trace recorder (nil when tracing is off). Every
	// hook nil-checks it, and the recorder only ever *reads* hierarchy
	// state, so the traced and untraced machines are byte-identical.
	tel *telemetry.Recorder

	// pfObserves counts every Observe fed to any prefetcher: not a
	// reported statistic, but the cycle skipper's guard against
	// amortizing a span that trains a prediction table. Feedback-driven
	// degree changes ride the same guard: they only happen on an Observe.
	pfObserves int64
}

// New assembles a hierarchy, panicking on invalid configuration (the
// public API validates first).
func New(cfg Config) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Hierarchy{
		cfg: cfg,
		l1i: cache.New(cfg.L1I),
		l1d: cache.New(cfg.L1D),
		l2:  cache.New(cfg.L2),
		l3:  cache.New(cfg.L3),
		ram: dram.New(cfg.DRAM),
		pfI: newEngine(cfg.L1IPrefetch, "l1i"),
		pfD: newEngine(cfg.L1DPrefetch, "l1d"),
		pf2: newEngine(cfg.L2Prefetch, "l2"),
	}
}

// AttachTelemetry points the hierarchy's event hooks at a trace recorder.
// Attach after warmup (alongside ResetStats) so the trace covers exactly
// the measured window; pass nil to detach.
func (h *Hierarchy) AttachTelemetry(rec *telemetry.Recorder) { h.tel = rec }

// L1I returns the instruction cache (stats access).
func (h *Hierarchy) L1I() *cache.Cache { return h.l1i }

// L1D returns the data cache (stats access).
func (h *Hierarchy) L1D() *cache.Cache { return h.l1d }

// L2 returns the second-level cache (stats access).
func (h *Hierarchy) L2() *cache.Cache { return h.l2 }

// L3 returns the last-level cache (stats access).
func (h *Hierarchy) L3() *cache.Cache { return h.l3 }

// DRAM returns the memory model (stats access).
func (h *Hierarchy) DRAM() *dram.DRAM { return h.ram }

// PFStatsL1I returns the L1I hardware prefetcher's aggregated statistics.
func (h *Hierarchy) PFStatsL1I() PFStats { return h.pfI.windowStats(h.l1i) }

// PFStatsL1D returns the L1D hardware prefetcher's aggregated statistics.
func (h *Hierarchy) PFStatsL1D() PFStats { return h.pfD.windowStats(h.l1d) }

// PFStatsL2 returns the L2 hardware prefetcher's aggregated statistics.
func (h *Hierarchy) PFStatsL2() PFStats { return h.pf2.windowStats(h.l2) }

// PFStats returns the combined hardware-prefetch statistics — the
// headline accuracy/coverage/timeliness numbers of a PF-augmented run.
// Only levels with an enabled engine contribute: with a single engine
// the combined numbers are exactly that engine's, and with several the
// coverage denominator pools each engine's own miss stream.
func (h *Hierarchy) PFStats() PFStats {
	var s PFStats
	if h.pfI.pf != nil {
		s = s.Add(h.PFStatsL1I())
	}
	if h.pfD.pf != nil {
		s = s.Add(h.PFStatsL1D())
	}
	if h.pf2.pf != nil {
		s = s.Add(h.PFStatsL2())
	}
	return s
}

// ResetStats opens a measurement window across all levels. Prefetcher
// prediction state (like cache contents) deliberately survives: warmup
// trains the tables. The adaptive throttles' feedback state also
// survives — machine behavior must not depend on where the measurement
// window opens.
func (h *Hierarchy) ResetStats() {
	h.l1i.ResetStats()
	h.l1d.ResetStats()
	h.l2.ResetStats()
	h.l3.ResetStats()
	h.ram.ResetStats()
	h.pfI.resetWindow()
	h.pfD.resetWindow()
	h.pf2.resetWindow()
}

// writeback pushes a dirty victim from level k into level k+1. It costs no
// pipeline time (write-back buffers are assumed) but marks lines dirty so
// dirty data eventually reaches DRAM as write traffic.
func (h *Hierarchy) writeback(from Level, ev cache.Eviction, now int64) {
	if !ev.Valid || !ev.Dirty {
		return
	}
	switch from {
	case LevelL1:
		if h.l2.Contains(ev.Addr) {
			h.l2.MarkDirty(ev.Addr)
			return
		}
		ev2 := h.l2.Insert(ev.Addr, now, cache.SrcDemand)
		h.l2.MarkDirty(ev.Addr)
		h.writeback(LevelL2, ev2, now)
	case LevelL2:
		if h.l3.Contains(ev.Addr) {
			h.l3.MarkDirty(ev.Addr)
			return
		}
		ev3 := h.l3.Insert(ev.Addr, now, cache.SrcDemand)
		h.l3.MarkDirty(ev.Addr)
		h.writeback(LevelL3, ev3, now)
	case LevelL3:
		h.ram.Access(ev.Addr, now, true)
	}
}

// access runs the generic L1→L2→L3→DRAM protocol starting from the given
// L1 cache. demand=false excludes the lookup from demand statistics; src
// tags any fills (runahead or hardware prefetches). ok=false means the
// access could not even start because the first-level MSHRs are
// exhausted; the caller must retry on a later cycle.
//
//sim:hotpath
func (h *Hierarchy) access(l1 *cache.Cache, addr uint64, now int64, demand bool, src cache.Source) (Result, bool) {
	// L1.
	if hit, ready := l1.Lookup(addr, now, demand); hit {
		return Result{Ready: ready, Level: LevelL1}, true
	}
	fill, inFlight, free := l1.MSHRProbe(addr, now)
	if inFlight {
		// Secondary miss: merge into the outstanding fill.
		return Result{Ready: fill, Level: LevelMem}, true
	}
	if free == 0 {
		l1.MSHRAlloc(addr, now, 0, src) // records the stall; allocation fails
		return Result{}, false
	}
	t := now + int64(l1.HitLatency())

	// A hardware prefetch is attributed at its engine's fill level only:
	// the L1D engine's copies installed en route into L2/L3 are untagged
	// (like demand fills), so each level's HWPref counters describe
	// exactly the engine attached to that level.
	downSrc := src
	if src == cache.SrcHW {
		downSrc = cache.SrcDemand
	}
	// The L2 prefetcher observes the data traffic that escapes the L1D.
	res, ok := h.accessL2(addr, t, demand, demand && l1 == h.l1d, downSrc)
	if !ok {
		return Result{}, false
	}
	h.fill(l1, addr, res.Ready, src, now)
	return res, true
}

// accessL2 runs the L2→L3→DRAM part of the protocol; t is the cycle the
// request reaches the L2. train feeds the access into the L2 hardware
// prefetcher (demand data traffic only). The caller owns the L1 fill.
//
//sim:hotpath
func (h *Hierarchy) accessL2(addr uint64, t int64, demand, train bool, src cache.Source) (Result, bool) {
	hit, ready := h.l2.Lookup(addr, t, demand)
	if train && h.pf2.pf != nil {
		h.pf2.pf.Observe(prefetch.Access{Addr: addr, Hit: hit, Cycle: t})
		h.pf2.observed(h, h.l2, t)
	}
	if hit {
		return Result{Ready: ready, Level: LevelL2}, true
	}
	fill, inFlight, free := h.l2.MSHRProbe(addr, t)
	if inFlight {
		return Result{Ready: fill, Level: LevelMem}, true
	}
	if free == 0 {
		h.l2.MSHRAlloc(addr, t, 0, src)
		return Result{}, false
	}
	t2 := t + int64(h.l2.HitLatency())

	// L3.
	if hit, ready := h.l3.Lookup(addr, t2, demand); hit {
		h.fillL2(addr, ready, src)
		h.l2.MSHRAlloc(addr, t, ready, src)
		return Result{Ready: ready, Level: LevelL3}, true
	}
	fill, inFlight, free = h.l3.MSHRProbe(addr, t2)
	if inFlight {
		h.fillL2(addr, fill, src)
		h.l2.MSHRAlloc(addr, t, fill, src)
		return Result{Ready: fill, Level: LevelMem}, true
	}
	if free == 0 {
		h.l3.MSHRAlloc(addr, t2, 0, src)
		return Result{}, false
	}
	t3 := t2 + int64(h.l3.HitLatency())

	// DRAM.
	done, _ := h.ram.Access(addr, t3, false)

	// As in access: the L2 engine's fill level is the L2, so its L3
	// en-route copy is untagged.
	l3Src := src
	if src == cache.SrcHW {
		l3Src = cache.SrcDemand
	}
	ev3 := h.l3.Insert(addr, done, l3Src)
	h.writeback(LevelL3, ev3, done)
	h.l3.MSHRAlloc(addr, t2, done, src)
	h.fillL2(addr, done, src)
	h.l2.MSHRAlloc(addr, t, done, src)
	return Result{Ready: done, Level: LevelMem}, true
}

// fill installs a line into an L1, allocating its MSHR for the in-flight
// window and handling the victim writeback.
func (h *Hierarchy) fill(l1 *cache.Cache, addr uint64, ready int64, src cache.Source, now int64) {
	ev := l1.Insert(addr, ready, src)
	h.writeback(LevelL1, ev, ready)
	l1.MSHRAlloc(addr, now, ready, src)
}

// fillL2 installs a line into the L2 on its way up.
func (h *Hierarchy) fillL2(addr uint64, ready int64, src cache.Source) {
	ev := h.l2.Insert(addr, ready, src)
	h.writeback(LevelL2, ev, ready)
}

// Load issues a demand data load for the line containing addr, with no
// program counter attached (PC-indexed prefetchers skip training). The
// core issues loads through LoadPC; Load remains for PC-less callers.
// ok=false means MSHRs were exhausted and the load must retry later.
func (h *Hierarchy) Load(addr uint64, now int64) (Result, bool) {
	return h.LoadPC(addr, 0, now)
}

// LoadPC issues a demand data load for the line containing addr on behalf
// of the load instruction at pc. The access trains the hardware
// prefetchers and drains their request queues into the hierarchy.
// ok=false means MSHRs were exhausted and the load must retry later.
//
//sim:hotpath
func (h *Hierarchy) LoadPC(addr, pc uint64, now int64) (Result, bool) {
	res, ok := h.access(h.l1d, addr, now, true, cache.SrcDemand)
	if ok {
		if h.pfD.pf != nil {
			h.pfD.pf.Observe(prefetch.Access{Addr: addr, PC: pc, Hit: res.Level == LevelL1, Cycle: now})
			h.pfD.observed(h, h.l1d, now)
		}
		h.drainPrefetchers(now)
	}
	return res, ok
}

// PFObserves returns the live count of training events fed to the
// hardware prefetchers — the cycle skipper's guard against amortizing a
// span that is still training a prediction table. It is never reset.
func (h *Hierarchy) PFObserves() *int64 { return &h.pfObserves }

// Prefetch issues a runahead prefetch for the line containing addr. It
// uses the same resources as a demand load but is excluded from demand
// statistics and its fills are tagged for coverage accounting. Runahead
// prefetches do not train the hardware prefetchers (they are not demand
// traffic).
func (h *Hierarchy) Prefetch(addr uint64, now int64) (Result, bool) {
	return h.access(h.l1d, addr, now, false, cache.SrcRunahead)
}

// Fetch issues an instruction fetch for the line containing addr. The
// access trains the L1I hardware prefetcher on the fetch stream and
// drains its request queue into the hierarchy.
func (h *Hierarchy) Fetch(addr uint64, now int64) (Result, bool) {
	res, ok := h.access(h.l1i, addr, now, true, cache.SrcDemand)
	if ok && h.pfI.pf != nil {
		h.pfI.pf.Observe(prefetch.Access{Addr: addr, Hit: res.Level == LevelL1, Cycle: now})
		h.pfI.observed(h, h.l1i, now)
		h.drainL1(&h.pfI, h.l1i, now)
	}
	return res, ok
}

// StoreCommit retires a store to the line containing addr. A hit marks the
// L1D line dirty. A miss write-allocates via the normal load path (the
// store buffer fetches ownership); the returned Ready is when the line
// arrives — the store-queue entry is held until then, but commit itself
// does not stall. ok=false means MSHRs were exhausted; retry.
func (h *Hierarchy) StoreCommit(addr uint64, now int64) (Result, bool) {
	if hit, ready := h.l1d.Lookup(addr, now, true); hit {
		h.l1d.MarkDirty(addr)
		return Result{Ready: ready, Level: LevelL1}, true
	}
	res, ok := h.access(h.l1d, addr, now, false, cache.SrcDemand)
	if ok {
		h.l1d.MarkDirty(addr)
	}
	return res, ok
}

// drainPrefetchers empties the data-side request queues into the
// hierarchy. Each request walks the real multi-level path — consuming
// MSHRs, DRAM banks and bus slots exactly like demand and runahead
// traffic — or is dropped (never retried) when its level's MSHRs are
// exhausted, the standard drop-on-contention policy of hardware prefetch
// engines. (The L1I engine drains on the fetch path, see Fetch.)
func (h *Hierarchy) drainPrefetchers(now int64) {
	if h.pfD.pf != nil {
		h.drainL1(&h.pfD, h.l1d, now)
	}
	if h.pf2.pf != nil {
		issued := int64(0)
		for _, addr := range h.pf2.pf.Requests() {
			switch {
			case h.filteredByRunahead(addr, now, h.l2, h.l3):
				h.pf2.cnt.filteredRA++
			case h.l3.Contains(addr) || h.l2.Holds(addr, now):
				// L3 first: Holds lazily retires completed L2 MSHRs, which
				// must happen only when neither level has the line.
				h.pf2.cnt.redundant++
			default:
				if _, ok := h.accessL2(addr, now, false, false, cache.SrcHW); ok {
					h.pf2.cnt.issued++
					h.pf2.lifeIssued++
					issued++
				} else {
					h.pf2.cnt.dropped++
				}
			}
		}
		if h.tel != nil && issued > 0 {
			h.tel.PrefetchTrain(now, h.pf2.level, int(issued))
		}
	}
}

// drainL1 empties one first-level engine's request queue through the full
// multi-level path starting at its L1 (the L1D data path or the L1I fetch
// path).
func (h *Hierarchy) drainL1(e *engine, l1 *cache.Cache, now int64) {
	issued := int64(0)
	for _, addr := range e.pf.Requests() {
		switch {
		case h.filteredByRunahead(addr, now, l1, h.l2, h.l3):
			e.cnt.filteredRA++
		case l1.Holds(addr, now):
			e.cnt.redundant++
		default:
			if _, ok := h.access(l1, addr, now, false, cache.SrcHW); ok {
				e.cnt.issued++
				e.lifeIssued++
				issued++
			} else {
				e.cnt.dropped++
			}
		}
	}
	if h.tel != nil && issued > 0 {
		h.tel.PrefetchTrain(now, e.level, int(issued))
	}
}

// filteredByRunahead implements the PRE-aware filter: it reports whether
// a hardware prefetch request should be dropped as a duplicate of an
// in-flight runahead fill at the engine's own level or any deeper one. A
// runahead fill in flight is visible two ways — as a tag-present line
// whose data has not arrived (the resource-reservation model installs
// lines at miss issue) or, after an eviction, as a bare runahead-tagged
// MSHR — and cache.RunaheadInFlight answers both, side-effect free.
// Counting these separately from Redundant is what makes the
// runahead/HW-prefetch interference term directly measurable; checking
// the deeper levels additionally stops requests that would otherwise
// issue and tie up the engine level's MSHR merging into a fill runahead
// already started.
//
//sim:pure
func (h *Hierarchy) filteredByRunahead(addr uint64, now int64, levels ...*cache.Cache) bool {
	if !h.cfg.RunaheadFilter {
		return false
	}
	for _, c := range levels {
		if c.RunaheadInFlight(addr, now) {
			return true
		}
	}
	return false
}

// NextMSHRRelease returns the earliest core cycle strictly after now at
// which an occupied MSHR anywhere in the hierarchy becomes *effective*
// for a retrying access. A blocked (MSHR-exhausted) access retries with
// an identical outcome every cycle until then, which is what lets the
// core fast-forward steady retry spans.
//
// The subtlety is that a retry probes deeper levels at future cycles —
// the L2 at now plus the L1 hit latency, the L3 another L2 hit latency
// later — so a level-k MSHR whose fill completes at cycle f already
// changes a retry issued lead(k) cycles earlier. Each level's releases
// are therefore shifted back by its maximal probe lead (the I-side and
// D-side leads differ; the larger one is used, which can only wake the
// core early — harmless — never late).
//
// DRAM bank and bus busy times need no separate probe: they are embedded
// in the fill-completion times the MSHRs already carry (the timing model
// computes completions analytically at issue).
func (h *Hierarchy) NextMSHRRelease(now int64) (int64, bool) {
	lead1 := int64(h.l1i.HitLatency())
	if l := int64(h.l1d.HitLatency()); l > lead1 {
		lead1 = l
	}
	lead2 := lead1 + int64(h.l2.HitLatency())
	var best int64
	ok := false
	consider := func(c *cache.Cache, lead int64) {
		if t, tok := c.NextMSHRRelease(now + lead); tok {
			if cand := t - lead; !ok || cand < best {
				best, ok = cand, true
			}
		}
	}
	consider(h.l1i, 0)
	consider(h.l1d, 0)
	consider(h.l2, lead1)
	consider(h.l3, lead2)
	return best, ok
}

// PublishMetrics snapshots the hierarchy's measured-window counters into
// the telemetry registry: per-level cache statistics under "mem/<level>/",
// DRAM statistics under "mem/dram/", and per-engine hardware-prefetch
// statistics under "pf/<level>/". It is a post-run read of existing
// statistics — never called on the simulation hot path.
func (h *Hierarchy) PublishMetrics(reg *telemetry.Registry) {
	pubCache := func(name string, c *cache.Cache) {
		s := c.Stats()
		reg.Counter("mem/"+name+"/accesses", s.Accesses)
		reg.Counter("mem/"+name+"/hits", s.Hits)
		reg.Counter("mem/"+name+"/misses", s.Misses)
		reg.Counter("mem/"+name+"/mshr_stalls", s.MSHRStalls)
		reg.Counter("mem/"+name+"/evictions", s.Evictions)
		reg.Counter("mem/"+name+"/writebacks", s.Writebacks)
		reg.Counter("mem/"+name+"/ra_pf_fills", s.PrefetchFills)
		reg.Counter("mem/"+name+"/ra_pf_useful", s.PrefetchUseful)
		reg.Counter("mem/"+name+"/hw_pf_fills", s.HWPrefFills)
		reg.Counter("mem/"+name+"/hw_pf_useful", s.HWPrefUseful)
		reg.Counter("mem/"+name+"/hw_pf_late", s.HWPrefLate)
	}
	pubCache("l1i", h.l1i)
	pubCache("l1d", h.l1d)
	pubCache("l2", h.l2)
	pubCache("l3", h.l3)

	ds := h.ram.Stats()
	reg.Counter("mem/dram/reads", ds.Reads)
	reg.Counter("mem/dram/writes", ds.Writes)
	reg.Counter("mem/dram/row_hits", ds.RowHits)
	reg.Counter("mem/dram/row_misses", ds.RowMisses)
	reg.Counter("mem/dram/row_conflicts", ds.RowConflict)
	reg.Counter("mem/dram/bus_busy_cycles", ds.BusBusyCyc)

	pubPF := func(e *engine, s PFStats) {
		if e.pf == nil {
			return
		}
		p := "pf/" + e.level + "/"
		reg.Counter(p+"issued", s.Issued)
		reg.Counter(p+"dropped", s.Dropped)
		reg.Counter(p+"redundant", s.Redundant)
		reg.Counter(p+"filtered_ra", s.FilteredRA)
		reg.Counter(p+"overflowed", s.Overflowed)
		reg.Counter(p+"fills", s.Fills)
		reg.Counter(p+"useful", s.Useful)
		reg.Counter(p+"late", s.Late)
		reg.Gauge(p+"accuracy", s.Accuracy())
		reg.Gauge(p+"coverage", s.Coverage())
		reg.Gauge(p+"timeliness", s.Timeliness())
		if dr, ok := e.pf.(prefetch.DegreeReporter); ok {
			reg.Counter(p+"degree", int64(dr.Degree()))
		}
	}
	pubPF(&h.pfI, h.pfI.windowStats(h.l1i))
	pubPF(&h.pfD, h.pfD.windowStats(h.l1d))
	pubPF(&h.pf2, h.pf2.windowStats(h.l2))
}

// DemandLoadWouldMissLLC reports whether a load of addr would miss every
// cache level right now, without perturbing state or statistics. The
// runahead controllers use it to decide whether a runahead load is worth
// issuing as a prefetch.
func (h *Hierarchy) DemandLoadWouldMissLLC(addr uint64) bool {
	return !h.l1d.Contains(addr) && !h.l2.Contains(addr) && !h.l3.Contains(addr)
}
