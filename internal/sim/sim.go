// Package sim assembles a full machine (core + memory + workload), runs
// warmup and measurement windows, and gathers the statistics every report
// and benchmark consumes. It is the programmatic equivalent of the
// paper's "simulate 1-billion-instruction SimPoints" methodology, scaled
// to windows that run in seconds.
package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Options controls a simulation run.
type Options struct {
	// WarmupUops executes before the measurement window opens (caches,
	// predictors and the SST learn during warmup).
	WarmupUops int64
	// MeasureUops is the measured window length.
	MeasureUops int64
	// Configure, if non-nil, adjusts the core configuration (built from
	// core.Default for the requested mode) before the machine is built —
	// the hook every ablation sweep uses.
	Configure func(*core.Config)
	// DisableCycleSkip runs every simulated cycle individually instead of
	// letting the core skip provably idle spans. Results are byte-identical
	// either way (the differential tests pin this); the knob exists for
	// those tests and for debugging, at a large wall-clock cost.
	DisableCycleSkip bool
	// Trace, when non-nil, records a cycle-level event timeline of the
	// measured window (runahead episodes, stall spans, cycle skips,
	// prefetch trains, throttle decisions) plus a post-run metrics
	// snapshot into the recorder. The recorder attaches after warmup and
	// only ever reads machine state, so the Result — and every byte of
	// the results sink — is identical with tracing on or off.
	Trace *telemetry.Recorder
}

// DefaultOptions returns the standard harness window.
func DefaultOptions() Options {
	return Options{WarmupUops: 50_000, MeasureUops: 300_000}
}

// ValidateWindow rejects a window Run cannot simulate: a non-positive
// measurement window or a negative warmup.
func (o Options) ValidateWindow() error {
	if o.MeasureUops <= 0 {
		return fmt.Errorf("sim: non-positive measurement window")
	}
	if o.WarmupUops < 0 {
		return fmt.Errorf("sim: negative warmup window (%d µops)", o.WarmupUops)
	}
	return nil
}

// Result is the flattened outcome of one run.
type Result struct {
	Workload string
	Mode     core.Mode

	Cycles    int64
	Committed int64
	IPC       float64

	// Memory behaviour.
	L3MPKI     float64 // demand LLC misses per kilo committed µop
	DRAMReads  int64
	DRAMWrites int64

	// Per-level demand hit breakdown (data-side for L1; L2/L3 include the
	// instruction misses that reach them).
	L1DHits, L1DMisses int64
	L2Hits, L2Misses   int64
	L3Hits, L3Misses   int64

	// Hardware-prefetcher behaviour (PF-augmented configurations; all
	// zero when every prefetcher is disabled). Issue counters sum the
	// L1I, L1D and L2 engines; the derived metrics use the standard
	// definitions (see mem.PFStats). HWPrefFilteredRA counts requests the
	// PRE-aware filter dropped as duplicates of in-flight runahead fills
	// (the interference term); HWPrefOverflowed counts requests lost to
	// engine queue overflow before the hierarchy saw them.
	HWPrefIssued     int64
	HWPrefDropped    int64
	HWPrefRedundant  int64
	HWPrefFilteredRA int64
	HWPrefOverflowed int64
	HWPrefFills      int64
	HWPrefUseful     int64
	HWPrefLate       int64
	HWPFAccuracy     float64
	HWPFCoverage     float64
	HWPFTimeliness   float64

	// Runahead behaviour.
	Entries             int64
	EntriesSkipped      int64
	RunaheadCycles      int64
	Prefetches          int64
	PrefetchFills       int64
	PrefetchUseful      int64
	IntervalMean        float64
	IntervalFracBelow20 float64
	RefillPenaltyMean   float64
	RefillPenaltyCount  int64
	FullWindowStall     int64
	DivergenceStops     int64

	// Section 3.4 free-resource fractions at runahead entry.
	FreeIQFrac, FreeIntFrac, FreeFPFrac float64

	BranchMispredicts int64

	Energy energy.Breakdown
}

// Speedup returns r's IPC normalized to base's.
func (r Result) Speedup(base Result) float64 {
	return stats.Ratio(r.IPC, base.IPC)
}

// Run simulates one workload under one mode.
func Run(w workload.Workload, mode core.Mode, opt Options) (Result, error) {
	if err := opt.ValidateWindow(); err != nil {
		return Result{}, err
	}
	cfg := core.Default(mode)
	if opt.Configure != nil {
		opt.Configure(&cfg)
	}
	c, err := core.New(cfg, w.New())
	if err != nil {
		return Result{}, err
	}
	c.DisableCycleSkip = opt.DisableCycleSkip
	if opt.WarmupUops > 0 {
		c.Run(opt.WarmupUops)
	}
	c.ResetStats()
	if opt.Trace != nil {
		// Attach after warmup and the stats reset so episode deltas are
		// measured against clean baselines and the trace covers exactly
		// the measured window.
		c.AttachTelemetry(opt.Trace)
		c.Hierarchy().AttachTelemetry(opt.Trace)
	}
	c.Run(opt.MeasureUops)
	if opt.Trace != nil {
		opt.Trace.Finish(c.Now())
		c.PublishMetrics(opt.Trace.Metrics())
		c.Hierarchy().PublishMetrics(opt.Trace.Metrics())
	}
	return gather(w.Name, mode, c), nil
}

// gather flattens the machine's statistics into a Result.
func gather(name string, mode core.Mode, c *core.Core) Result {
	cs := c.Stats()
	l1d := c.Hierarchy().L1D().Stats()
	l1i := c.Hierarchy().L1I().Stats()
	l2 := c.Hierarchy().L2().Stats()
	l3 := c.Hierarchy().L3().Stats()
	dr := c.Hierarchy().DRAM().Stats()
	fe := c.FetchUnit().Stats()
	sst := c.SST().Stats()
	prdq := c.PRDQ().Stats()
	emq := c.EMQ().Stats()

	act := energy.Activity{
		Cycles:       cs.Cycles,
		Fetched:      fe.FetchedUops,
		Decoded:      cs.Decoded,
		Renamed:      cs.Renamed,
		Dispatched:   cs.Dispatched,
		IssuedALU:    cs.IssuedALU,
		IssuedFPU:    cs.IssuedFPU,
		IssuedBranch: cs.IssuedBranch,
		IssuedMem:    cs.IssuedLoad + cs.IssuedStore,
		RegReads:     2 * (cs.IssuedALU + cs.IssuedFPU + cs.IssuedBranch + cs.IssuedLoad + cs.IssuedStore),
		RegWrites:    cs.Completed,
		Committed:    cs.Committed + cs.PseudoRetired,
		L1Accesses:   l1i.Accesses + cs.IssuedLoad + cs.IssuedStore + l1d.HWPrefFills + l1i.HWPrefFills,
		L2Accesses:   l2.Accesses + l2.PrefetchFills + l2.HWPrefFills + l2.Writebacks,
		L3Accesses:   l3.Accesses + l3.PrefetchFills + l3.HWPrefFills + l3.Writebacks,
		DRAMAccesses: dr.Reads + dr.Writes,
		SSTLookups:   sst.Lookups,
		SSTWrites:    sst.Inserts,
		PRDQOps:      prdq.Allocs + prdq.Deallocs,
		EMQOps:       emq.Pushes + emq.Pops,
	}

	pf := c.Hierarchy().PFStats()

	return Result{
		Workload:            name,
		Mode:                mode,
		Cycles:              cs.Cycles,
		Committed:           cs.Committed,
		IPC:                 cs.IPC(),
		L3MPKI:              stats.PerKilo(l3.Misses, cs.Committed),
		DRAMReads:           dr.Reads,
		DRAMWrites:          dr.Writes,
		L1DHits:             l1d.Hits,
		L1DMisses:           l1d.Misses,
		L2Hits:              l2.Hits,
		L2Misses:            l2.Misses,
		L3Hits:              l3.Hits,
		L3Misses:            l3.Misses,
		HWPrefIssued:        pf.Issued,
		HWPrefDropped:       pf.Dropped,
		HWPrefRedundant:     pf.Redundant,
		HWPrefFilteredRA:    pf.FilteredRA,
		HWPrefOverflowed:    pf.Overflowed,
		HWPrefFills:         pf.Fills,
		HWPrefUseful:        pf.Useful,
		HWPrefLate:          pf.Late,
		HWPFAccuracy:        pf.Accuracy(),
		HWPFCoverage:        pf.Coverage(),
		HWPFTimeliness:      pf.Timeliness(),
		Entries:             cs.Entries,
		EntriesSkipped:      cs.EntriesSkipped,
		RunaheadCycles:      cs.RunaheadCycles,
		Prefetches:          cs.Prefetches,
		PrefetchFills:       l1d.PrefetchFills,
		PrefetchUseful:      l1d.PrefetchUseful,
		IntervalMean:        cs.Intervals.Mean(),
		IntervalFracBelow20: cs.Intervals.FractionBelow(20),
		RefillPenaltyMean:   cs.RefillPenalty.Mean(),
		RefillPenaltyCount:  cs.RefillPenalty.Count(),
		FullWindowStall:     cs.FullWindowStallCycles,
		DivergenceStops:     cs.DivergenceStops,
		FreeIQFrac:          cs.FreeIQAtEntry.Mean(),
		FreeIntFrac:         cs.FreeIntRegAtEntry.Mean(),
		FreeFPFrac:          cs.FreeFPRegAtEntry.Mean(),
		BranchMispredicts:   cs.BranchMispredicts,
		Energy:              energy.Compute(energy.Default22nm(), act),
	}
}
