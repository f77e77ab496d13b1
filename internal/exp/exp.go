// Package exp is the parallel experiment orchestrator: it expands
// (workload x mode x config-point) cross-products into a deduplicated run
// list, executes the unique runs on a worker pool sharded across the
// host's cores, and aggregates speedups over shared baselines.
//
// The package industrializes the design-space sweeps behind the paper's
// evaluation (Figures 2-7, ablations A1-A3). Its contract is
// determinism: a given Matrix produces byte-identical results JSON (see
// Set.WriteJSON) at any worker count, because
//
//   - every simulation is single-threaded and replay-deterministic,
//   - each unique run writes only its own pre-allocated result slot,
//     found by its identity (CellKey: workload, window, canonical
//     config), never by scheduling order or time, and
//   - all output is emitted in expansion order, not completion order.
//
// Deduplication exploits mode-irrelevant configuration: an OoO baseline
// does not read SSTSize, so a seven-point SST sweep needs the baseline
// simulated once, not seven times. canonicalConfig encodes which knobs
// each mechanism actually reads; identical canonical configurations
// share one simulation.
package exp

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exp/pool"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
	"repro/internal/workload/synth"
)

// Point is one configuration point of a sweep: a named override applied
// on top of the mode's default configuration (after Options.Configure).
// Apply sees the full configuration including Mode, so a point may
// condition on it (e.g. the E6 FreeExit ablation applies to ModeRA only).
type Point struct {
	// Name labels the point in reports and the results sink ("sst=256").
	Name string
	// Apply mutates the configuration; nil means the default point.
	Apply func(*core.Config)
}

// Matrix declares a full experiment: the cross-product of Points x
// Workloads x Modes, all simulated under the same measurement window.
type Matrix struct {
	// Name labels the experiment in the results sink.
	Name string
	// Workloads are the benchmarks to simulate.
	Workloads []workload.Workload
	// Modes are the mechanisms to compare.
	Modes []core.Mode
	// Points are the sweep's configuration points; empty means a single
	// default point.
	Points []Point
	// Population, when non-nil, appends Count seeded synthetic scenarios
	// sampled from Space to the workload axis — the stochastic complement
	// to the fixed Workloads list (either may be empty, not both).
	Population *Population
	// Options sets the warmup/measurement window. Options.Configure, if
	// non-nil, applies before each Point's Apply.
	Options sim.Options
	// Baseline is the speedup denominator mode. The zero value is
	// ModeOoO, the paper's baseline.
	Baseline core.Mode
	// AddBaseline forces a baseline run per (point, workload) even when
	// Baseline is not in Modes, so speedups are always computable.
	// Baseline runs added this way are extra unique runs, not cells.
	AddBaseline bool
}

// uniqueRun is one deduplicated simulation.
type uniqueRun struct {
	wi   int // index into Matrix.Workloads
	mode core.Mode
	cfg  core.Config // fully-applied configuration
	key  CellKey     // canonical identity (drives dedup and caching)
}

// Plan is an expanded Matrix: the cell grid, the deduplicated run list,
// and the baseline wiring. Build one with Matrix.Expand, run it with
// Plan.Run.
type Plan struct {
	m      Matrix
	points []Point
	// workloads is the full workload axis: Matrix.Workloads plus the
	// expanded Population scenarios.
	workloads []workload.Workload
	// synth holds the sampled scenario parameters per workload (nil for
	// fixed workloads) — recorded per cell in the results document so any
	// population run is reproducible from the artifact alone.
	synth []*synth.Params
	// cells maps cell index (point-major, then workload, then mode) to a
	// unique-run index.
	cells []int
	// base maps (point, workload) to the baseline's unique-run index, or
	// -1 when no baseline is available.
	base   []int
	unique []uniqueRun
}

// Expand validates the matrix and builds the deduplicated run plan,
// sampling the Population scenarios (if any) onto the workload axis.
func (m Matrix) Expand() (*Plan, error) {
	workloads := append([]workload.Workload(nil), m.Workloads...)
	synthParams := make([]*synth.Params, len(workloads))
	if m.Population != nil {
		pws, pps, err := m.Population.expand()
		if err != nil {
			return nil, err
		}
		workloads = append(workloads, pws...)
		synthParams = append(synthParams, pps...)
	}
	if len(workloads) == 0 {
		return nil, fmt.Errorf("exp: matrix has no workloads")
	}
	if len(m.Modes) == 0 {
		return nil, fmt.Errorf("exp: matrix has no modes")
	}
	if err := m.Options.ValidateWindow(); err != nil {
		return nil, err
	}
	points := m.Points
	if len(points) == 0 {
		points = []Point{{Name: "default"}}
	}
	seenPoints := make(map[string]bool, len(points))
	for _, pt := range points {
		if pt.Name == "" {
			return nil, fmt.Errorf("exp: point with empty name")
		}
		if seenPoints[pt.Name] {
			return nil, fmt.Errorf("exp: duplicate point name %q", pt.Name)
		}
		seenPoints[pt.Name] = true
	}
	seenWs := make(map[string]bool, len(workloads))
	for _, w := range workloads {
		if seenWs[w.Name] {
			return nil, fmt.Errorf("exp: duplicate workload %q", w.Name)
		}
		seenWs[w.Name] = true
	}

	p := &Plan{
		m:         m,
		points:    points,
		workloads: workloads,
		synth:     synthParams,
		cells:     make([]int, 0, len(points)*len(workloads)*len(m.Modes)),
		base:      make([]int, 0, len(points)*len(workloads)),
	}
	index := make(map[string]int) // key -> unique index

	intern := func(wi int, mode core.Mode, pt Point) (int, error) {
		cfg := core.Default(mode)
		if m.Options.Configure != nil {
			m.Options.Configure(&cfg)
		}
		if pt.Apply != nil {
			pt.Apply(&cfg)
		}
		// Hooks must not switch mechanisms: the cell's mode is part of
		// the matrix identity.
		cfg.Mode = mode
		if err := cfg.Validate(); err != nil {
			return 0, fmt.Errorf("exp: point %q, workload %q, mode %v: %w",
				pt.Name, p.workloads[wi].Name, mode, err)
		}
		key := CellKeyFor(p.workloads[wi].Name, p.synth[wi], m.Options, cfg)
		ks := key.String()
		if ui, ok := index[ks]; ok {
			return ui, nil
		}
		ui := len(p.unique)
		index[ks] = ui
		p.unique = append(p.unique, uniqueRun{
			wi: wi, mode: mode, cfg: cfg, key: key,
		})
		return ui, nil
	}

	baselineInModes := false
	for _, mode := range m.Modes {
		if mode == m.Baseline {
			baselineInModes = true
		}
	}
	for _, pt := range points {
		for wi := range p.workloads {
			for _, mode := range m.Modes {
				ui, err := intern(wi, mode, pt)
				if err != nil {
					return nil, err
				}
				p.cells = append(p.cells, ui)
			}
			switch {
			case baselineInModes, m.AddBaseline:
				ui, err := intern(wi, m.Baseline, pt)
				if err != nil {
					return nil, err
				}
				p.base = append(p.base, ui)
			default:
				p.base = append(p.base, -1)
			}
		}
	}
	return p, nil
}

// NumCells returns the number of matrix cells (points x workloads x modes).
func (p *Plan) NumCells() int { return len(p.cells) }

// NumUnique returns the number of deduplicated simulations the plan will
// actually run; the difference from NumCells (plus implicit baselines) is
// work saved by shared-baseline caching.
func (p *Plan) NumUnique() int { return len(p.unique) }

// Points returns the plan's point labels in expansion order.
func (p *Plan) Points() []string {
	names := make([]string, len(p.points))
	for i, pt := range p.points {
		names[i] = pt.Name
	}
	return names
}

// Workloads returns the plan's full workload axis — the matrix's fixed
// workloads followed by the expanded population scenarios.
func (p *Plan) Workloads() []workload.Workload {
	return append([]workload.Workload(nil), p.workloads...)
}

// SynthParams returns the sampled scenario parameters of workload wi, or
// nil for a fixed (non-population) workload.
func (p *Plan) SynthParams(wi int) *synth.Params { return p.synth[wi] }

// Key returns the canonical cell key of unique run ui — the identity a
// content-addressed result cache stores the run's Result under.
func (p *Plan) Key(ui int) CellKey { return p.unique[ui].key }

// Run executes the plan's unique runs on a worker pool (workers <= 0
// selects one worker per CPU) and returns the completed result set. The
// first error in expansion order aborts the set. Execution-environment
// facts (wall-clock, pool width) are recorded on the set's Meta, NOT in
// the results document — they vary run to run, and the results JSON must
// stay byte-identical at any worker count.
func (p *Plan) Run(workers int) (*Set, error) {
	return p.RunOpts(RunOptions{Workers: workers})
}

// ProgressEvent describes one completed unique run, delivered to
// RunOptions.Progress as the sweep advances.
type ProgressEvent struct {
	// Done is the number of unique runs completed so far (including this
	// one); Total is the plan's unique-run count.
	Done, Total int
	// Workload and Mode identify the run that just finished.
	Workload string
	Mode     core.Mode
	// Seconds is the run's own wall-clock; ElapsedSeconds is the time
	// since Plan execution started.
	Seconds        float64
	ElapsedSeconds float64
	// Cached marks runs satisfied by RunOptions.Lookup instead of a
	// fresh simulation.
	Cached bool
}

// RunOptions extends Plan.Run with telemetry: a progress callback and
// per-run trace recording. The zero value behaves exactly like
// Plan.Run(0).
type RunOptions struct {
	// Workers is the pool width (<= 0 selects one worker per CPU).
	Workers int
	// Progress, when non-nil, is invoked once per completed unique run.
	// Invocations are serialized (never concurrent) but arrive in
	// completion order, which varies with scheduling — Progress must not
	// feed anything covered by the determinism contract.
	Progress func(ProgressEvent)
	// Trace attaches one telemetry recorder per unique run (pid = the
	// run's unique index, so every run gets its own track group in the
	// merged trace). Recorders are never shared across pool workers, so
	// tracing adds no synchronization to the runs themselves.
	Trace bool
	// Context, when non-nil, cancels the run: unique runs that have not
	// started when the context is cancelled are skipped, and RunOpts
	// returns a clean error wrapping ctx.Err() instead of partial
	// results. In-flight simulations run to completion (the core has no
	// preemption point), so cancellation latency is bounded by the
	// longest single cell, never by the whole plan.
	Context context.Context
	// Lookup, when non-nil, is consulted with each unique run's CellKey
	// before simulating; returning (r, true) substitutes r for the
	// simulation. Two runs with equal keys produce equal Results, so a
	// correct cache is observationally identical to a cold run — the
	// byte-identical results contract holds either way, which is what
	// makes cached sweeps verifiable.
	Lookup func(CellKey) (sim.Result, bool)
	// Store, when non-nil, receives each freshly simulated (non-cached,
	// non-failed) result keyed by its CellKey. Calls may be concurrent;
	// the store synchronizes internally.
	Store func(CellKey, sim.Result)
}

// RunOpts executes the plan like Run, with progress and trace telemetry.
//
//sim:wallclock timings land only in RunMeta (the meta.json sidecar) and progress events, never in results JSON
func (p *Plan) RunOpts(opts RunOptions) (*Set, error) {
	start := time.Now()
	res := make([]sim.Result, len(p.unique))
	errs := make([]error, len(p.unique))
	secs := make([]float64, len(p.unique))
	var recs []*telemetry.Recorder
	if opts.Trace {
		recs = make([]*telemetry.Recorder, len(p.unique))
		for i, u := range p.unique {
			recs[i] = telemetry.NewRecorderPid(
				fmt.Sprintf("%s/%s", p.workloads[u.wi].Name, u.mode), i)
		}
	}
	var mu sync.Mutex
	done := 0
	cacheHits := 0
	pool.Run(len(p.unique), opts.Workers, func(i int) {
		// Cells that have not started under a cancelled context are
		// skipped (never simulated, no progress event); the post-run
		// check below folds them into one clean cancellation error.
		// In-flight cells run to completion — the core has no preemption
		// point — so cancellation latency is one cell, not the plan.
		if opts.Context != nil && opts.Context.Err() != nil {
			errs[i] = opts.Context.Err()
			return
		}
		u := p.unique[i]
		cellStart := time.Now()
		cached := false
		// The deferred block must run on the worker goroutine itself:
		// it converts a panicking cell into an error that names the cell
		// (instead of killing the whole process nameless) and reports
		// the cell's completion.
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("exp: workload %q mode %v (cell key %.16s) panicked: %v",
					p.workloads[u.wi].Name, u.mode, u.key.Hash(), r)
			}
			secs[i] = time.Since(cellStart).Seconds()
			if opts.Progress != nil {
				mu.Lock()
				done++
				opts.Progress(ProgressEvent{
					Done:           done,
					Total:          len(p.unique),
					Workload:       p.workloads[u.wi].Name,
					Mode:           u.mode,
					Seconds:        secs[i],
					ElapsedSeconds: time.Since(start).Seconds(),
					Cached:         cached,
				})
				mu.Unlock()
			}
		}()
		if opts.Lookup != nil {
			if r, ok := opts.Lookup(u.key); ok {
				res[i] = r
				cached = true
				mu.Lock()
				cacheHits++
				mu.Unlock()
				return
			}
		}
		opt := p.m.Options
		cfg := u.cfg
		opt.Configure = func(c *core.Config) { *c = cfg }
		if recs != nil {
			opt.Trace = recs[i]
		}
		res[i], errs[i] = sim.Run(p.workloads[u.wi], u.mode, opt)
		if errs[i] == nil && opts.Store != nil {
			opts.Store(u.key, res[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			// A cancelled context reads as one clean job-level error, not
			// whichever per-cell ctx.Err() happened to land first.
			if ctx := opts.Context; ctx != nil && ctx.Err() != nil {
				return nil, fmt.Errorf("exp: run cancelled: %w", ctx.Err())
			}
			return nil, err
		}
	}
	meta := RunMeta{
		Schema:           SchemaVersion,
		Name:             p.m.Name,
		WallClockSeconds: time.Since(start).Seconds(),
		Workers:          opts.Workers,
		EffectiveWorkers: pool.Effective(len(p.unique), opts.Workers),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		UniqueRuns:       p.NumUnique(),
		TotalCells:       p.NumCells(),
		CacheHits:        cacheHits,
	}
	sorted := append([]float64(nil), secs...)
	sort.Float64s(sorted)
	for _, s := range sorted {
		meta.CellSecondsTotal += s
	}
	if n := len(sorted); n > 0 {
		meta.CellSecondsMin = sorted[0]
		meta.CellSecondsMedian = sorted[n/2]
		meta.CellSecondsMax = sorted[n-1]
	}
	// denom is zero for zero-cell plans (EffectiveWorkers 0) and can be
	// zero on coarse clocks when every cell was a cache hit; utilization
	// stays 0 then instead of dividing to NaN/Inf.
	if denom := meta.WallClockSeconds * float64(meta.EffectiveWorkers); denom > 0 {
		meta.WorkerUtilization = meta.CellSecondsTotal / denom
	}
	return &Set{plan: p, res: res, meta: meta, trace: recs}, nil
}

// Set holds a plan's completed results and the aggregation helpers every
// sweep frontend shares.
type Set struct {
	plan *Plan
	res  []sim.Result
	meta RunMeta
	// trace holds the per-unique-run telemetry recorders when the set was
	// produced with RunOptions.Trace; nil otherwise.
	trace []*telemetry.Recorder
}

// Meta returns the execution-environment record of the Run call that
// produced this set.
func (s *Set) Meta() RunMeta { return s.meta }

// TraceRecorders returns the per-unique-run telemetry recorders, indexed
// like the plan's unique runs, or nil when the set was run without
// RunOptions.Trace.
func (s *Set) TraceRecorders() []*telemetry.Recorder { return s.trace }

// Plan returns the plan this set was produced from.
func (s *Set) Plan() *Plan { return s.plan }

// cellIndex flattens (point, workload, mode) indices.
func (s *Set) cellIndex(pi, wi, mi int) int {
	nw, nm := len(s.plan.workloads), len(s.plan.m.Modes)
	return (pi*nw+wi)*nm + mi
}

// Result returns the simulation result of one matrix cell.
func (s *Set) Result(pi, wi, mi int) sim.Result {
	return s.res[s.plan.cells[s.cellIndex(pi, wi, mi)]]
}

// Baseline returns the baseline run shared by (point, workload), and
// whether one exists.
func (s *Set) Baseline(pi, wi int) (sim.Result, bool) {
	ui := s.plan.base[pi*len(s.plan.workloads)+wi]
	if ui < 0 {
		return sim.Result{}, false
	}
	return s.res[ui], true
}

// Speedup returns a cell's IPC normalized to its (point, workload)
// baseline, or 0 when no baseline exists.
func (s *Set) Speedup(pi, wi, mi int) float64 {
	base, ok := s.Baseline(pi, wi)
	if !ok {
		return 0
	}
	return s.Result(pi, wi, mi).Speedup(base)
}

// GeoMeanSpeedups returns, for one point, the geometric-mean speedup of
// each mode over the baseline across all workloads — the summary numbers
// of the paper's sweep figures. This is the aggregation cmd/sweep used to
// recompute inline. Workloads without a baseline are skipped; with no
// baselines at all every entry is 0.
func (s *Set) GeoMeanSpeedups(pi int) []float64 {
	out := make([]float64, len(s.plan.m.Modes))
	for mi := range s.plan.m.Modes {
		xs := make([]float64, 0, len(s.plan.workloads))
		for wi := range s.plan.workloads {
			if _, ok := s.Baseline(pi, wi); !ok {
				continue
			}
			xs = append(xs, s.Speedup(pi, wi, mi))
		}
		// Degenerate cells (0/NaN speedup from a near-empty baseline
		// window) are dropped rather than letting one sampled seed
		// panic the whole sweep summary.
		out[mi], _ = stats.GeoMeanPositive(xs)
	}
	return out
}

// Grid returns one point's results indexed [workload][mode] — the shape
// the report package consumes.
func (s *Set) Grid(pi int) [][]sim.Result {
	grid := make([][]sim.Result, len(s.plan.workloads))
	for wi := range grid {
		row := make([]sim.Result, len(s.plan.m.Modes))
		for mi := range row {
			row[mi] = s.Result(pi, wi, mi)
		}
		grid[wi] = row
	}
	return grid
}

// canonicalConfig zeroes the runahead knobs the configuration's mode never
// reads, so configurations that differ only in mode-irrelevant knobs
// fingerprint identically and share one simulation. The table mirrors
// internal/core's per-mode knob usage (see runctl.go); exp's tests pin it
// empirically by asserting result equality across irrelevant knob values.
func canonicalConfig(cfg core.Config) core.Config {
	c := cfg
	type knobs struct {
		runaheadWidth, sst, prdq, emq, chain, minCycles, divergence, replay, freeExit bool
	}
	var keep knobs
	switch c.Mode {
	case core.ModeOoO:
		// The baseline reads none of the runahead machinery. The
		// PRE-aware prefetch filter is also inert here — it only drops
		// duplicates of runahead-tagged fills, which a baseline never
		// creates — so filtered and unfiltered variants share a baseline.
		c.Mem.RunaheadFilter = false
	case core.ModeRA:
		keep = knobs{minCycles: true, freeExit: true}
	case core.ModeRABuffer:
		// runctl.go's entry/exit paths read FreeExit for RA-buffer too;
		// Config.Validate currently restricts the knob to ModeRA, but the
		// dedup key must not depend on that staying true.
		keep = knobs{chain: true, minCycles: true, replay: true, freeExit: true}
	case core.ModePRE:
		keep = knobs{runaheadWidth: true, sst: true, prdq: true, divergence: true}
	case core.ModePREEMQ:
		keep = knobs{runaheadWidth: true, sst: true, prdq: true, emq: true, divergence: true}
	default:
		return c // unknown mode: keep everything, dedup conservatively
	}
	if !keep.runaheadWidth {
		c.RunaheadWidth = 0
	}
	if !keep.sst {
		c.SSTSize = 0
	}
	if !keep.prdq {
		c.PRDQSize = 0
	}
	if !keep.emq {
		c.EMQSize = 0
	}
	if !keep.chain {
		c.ChainMaxLen = 0
	}
	if !keep.minCycles {
		c.MinRunaheadCycles = 0
	}
	if !keep.divergence {
		c.PREMaxDivergence = 0
	}
	if !keep.replay {
		c.ReplayLookahead = 0
	}
	if !keep.freeExit {
		c.FreeExit = false
	}
	return c
}
