// Command sweep runs the design-space ablations called out in DESIGN.md:
//
//	sweep -sst           # A1: SST size sweep (paper: 256 entries suffice)
//	sweep -emq           # A2: EMQ size sweep (paper picks 768 = 4x ROB)
//	sweep -rathreshold   # A3: RA short-interval filter threshold
//	sweep -mshr          # extra: memory-level-parallelism budget
//	sweep -pf            # PF grid: every mechanism x every prefetcher variant
//	sweep -synth         # population sweep: -seeds sampled scenarios
//
// Each sweep reports the geometric-mean speedup over the OoO baseline
// across the whole suite for each parameter value. The -pf grid is the
// PRE-vs-prefetch-vs-combined comparison: {OoO, RA, RA-buffer, PRE,
// PRE+EMQ} x the eight standard prefetcher variants (no-pf, stride,
// best-offset, stride+bo, l1i-nl, throttled, filtered, adaptive) over
// the 13-workload suite, with per-run prefetch accuracy/coverage/
// timeliness in the results JSON.
//
// The -synth sweep replaces the fixed suite with a seeded scenario
// population (internal/workload/synth): -seeds scenarios sampled from the
// default space (base seed -synthseed, default date-pinned), every
// mechanism per scenario, reported as per-seed speedup distributions
// (min/median/geomean + worst seed). The results JSON records each
// scenario's sampled parameters, so any seed is reproducible from the
// artifact alone.
//
// The command is a thin frontend over the parallel experiment
// orchestrator (internal/exp): each sweep becomes one exp.Matrix whose
// points are the parameter values, the orchestrator dedupes the shared
// OoO baselines and shards the unique runs across -workers cores, and
// -json captures the full schema-versioned results document. -workers 1
// runs one simulation at a time; output is identical at any width.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	presim "repro"
	"repro/internal/core"
	"repro/internal/exp"
)

func main() {
	doSST := flag.Bool("sst", false, "sweep SST size (PRE)")
	doEMQ := flag.Bool("emq", false, "sweep EMQ size (PRE+EMQ)")
	doRAT := flag.Bool("rathreshold", false, "sweep RA short-interval filter")
	doMSHR := flag.Bool("mshr", false, "sweep L1D MSHR count (PRE)")
	doPF := flag.Bool("pf", false, "run the mechanism x hardware-prefetcher grid")
	doSynth := flag.Bool("synth", false, "run a seeded scenario-population sweep")
	seeds := flag.Int("seeds", 20, "population size for -synth")
	synthSeed := flag.Uint64("synthseed", 0, "population base seed for -synth (0 = date-pinned default)")
	warmup := flag.Int64("warmup", 50_000, "warmup µops per run")
	measure := flag.Int64("n", 200_000, "measured µops per run")
	workers := flag.Int("workers", 0, "worker pool width (0 = one per CPU)")
	jsonDir := flag.String("json", "", "directory to write schema-versioned results JSON into")
	timing := flag.Bool("time", false, "report wall-clock time per sweep")
	progress := flag.Bool("progress", false, "print live per-run progress to stderr as the sweep advances")
	server := flag.String("server", "", "submit the sweep to a running simulation server (cmd/simd URL) instead of simulating locally; the server's result cache makes repeated sweeps cheap. Remote sweeps report cache/timing stats and write the results JSON via -json; summary tables are a local-run feature")
	tracefile := flag.String("tracefile", "", "write a merged Chrome-trace (Perfetto) sidecar of the sweep's runs to this file; requires exactly one sweep selection")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at sweep end to this file")
	flag.Parse()

	if *server != "" && (*tracefile != "" || *workers != 0) {
		fmt.Fprintln(os.Stderr, "sweep: -server runs on the remote machine; -tracefile and -workers are local-run flags")
		os.Exit(2)
	}

	// -tracefile writes one sidecar file per invocation; two selected
	// sweeps would silently overwrite each other's trace, so fail fast.
	if *tracefile != "" {
		nSweeps := 0
		for _, b := range []bool{*doSST, *doEMQ, *doRAT, *doMSHR, *doPF, *doSynth} {
			if b {
				nSweeps++
			}
		}
		if nSweeps != 1 {
			fmt.Fprintln(os.Stderr, "sweep: -tracefile records exactly one sweep; select exactly one of -sst, -emq, -rathreshold, -mshr, -pf, -synth")
			os.Exit(2)
		}
	}

	// A zero or negative window is always an invocation mistake: -n 0
	// would make every run fail deep inside the orchestrator with a
	// confusing per-cell error, and -warmup 0 would report cold-start
	// numbers (empty caches, untrained predictor) as if they were steady
	// state.
	if *measure <= 0 {
		fmt.Fprintf(os.Stderr, "sweep: -n must be positive (got %d)\n", *measure)
		os.Exit(2)
	}
	if *warmup <= 0 {
		fmt.Fprintf(os.Stderr, "sweep: -warmup must be positive (got %d)\n", *warmup)
		os.Exit(2)
	}

	// Population knobs only act under -synth; silently ignoring an
	// explicit -seeds/-synthseed would drop the requested population run.
	if !*doSynth {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seeds" || f.Name == "synthseed" {
				fmt.Fprintf(os.Stderr, "sweep: -%s only applies to -synth (add -synth or drop the flag)\n", f.Name)
				os.Exit(2)
			}
		})
	}

	// Profiling hooks (after flag validation, so a usage exit never
	// leaves a truncated profile behind): hot-path regressions in the
	// simulator should be diagnosable from a real sweep without editing
	// code —
	//   sweep -sst -cpuprofile cpu.out && go tool pprof cpu.out
	// A mid-run fatal() stops the CPU profile before exiting; the heap
	// profile is written only on a successful run.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	opt := presim.DefaultOptions()
	opt.WarmupUops = *warmup
	opt.MeasureUops = *measure

	s := sweeper{opt: opt, workers: *workers, jsonDir: *jsonDir,
		timing: *timing, progress: *progress, tracefile: *tracefile,
		server: *server}

	any := false
	if *doSST {
		any = true
		s.sweep("a1_sst", "A1: SST entries (PRE speedup over OoO)", presim.ModePRE,
			[]int{16, 32, 64, 128, 256, 512, 1024}, "sst_size",
			func(c *core.Config, v int) { c.SSTSize = v })
	}
	if *doEMQ {
		any = true
		s.sweep("a2_emq", "A2: EMQ entries (PRE+EMQ speedup over OoO)", presim.ModePREEMQ,
			[]int{192, 384, 768, 1152, 1536}, "emq_size",
			func(c *core.Config, v int) { c.EMQSize = v })
	}
	if *doRAT {
		any = true
		s.sweep("a3_rathreshold", "A3: RA minimum-interval filter, cycles (RA speedup over OoO)", presim.ModeRA,
			[]int{0, 20, 40, 64, 100, 150}, "min_runahead_cycles",
			func(c *core.Config, v int) { c.MinRunaheadCycles = int64(v) })
	}
	if *doMSHR {
		any = true
		s.sweep("mshr", "MSHR budget: L1D outstanding misses (PRE speedup over OoO)", presim.ModePRE,
			[]int{8, 16, 32, 64}, "l1d_mshrs",
			func(c *core.Config, v int) { c.Mem.L1D.MSHRs = v })
	}
	if *doPF {
		any = true
		s.sweepPF()
	}
	if *doSynth {
		any = true
		s.sweepSynth(*seeds, *synthSeed)
	}
	if !any {
		fmt.Fprintln(os.Stderr, "sweep: pass at least one of -sst, -emq, -rathreshold, -mshr, -pf, -synth")
		os.Exit(2)
	}
}

type sweeper struct {
	opt       presim.Options
	workers   int
	jsonDir   string
	timing    bool
	progress  bool
	tracefile string
	server    string // simulation-server URL; "" = run locally
}

// runOpts assembles the orchestrator options: the pool width, per-run
// trace recording when -tracefile was given, and the live -progress meter
// on stderr (stderr so it never pollutes the parseable stdout tables).
func (s sweeper) runOpts() exp.RunOptions {
	o := exp.RunOptions{Workers: s.workers, Trace: s.tracefile != ""}
	if s.progress {
		o.Progress = func(ev exp.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "sweep: %d/%d done  %s/%s  %.2fs (elapsed %.1fs)\n",
				ev.Done, ev.Total, ev.Workload, ev.Mode, ev.Seconds, ev.ElapsedSeconds)
		}
	}
	return o
}

// writeTrace writes the merged trace sidecar when -tracefile was given.
func (s sweeper) writeTrace(set *exp.Set) {
	if s.tracefile == "" {
		return
	}
	if err := set.WriteTrace(s.tracefile); err != nil {
		fatal(err)
	}
	fmt.Printf("  (trace sidecar written to %s)\n", s.tracefile)
}

// sweep runs the full suite at each parameter value and prints the
// geometric-mean speedup over the (shared, deduplicated) OoO baseline.
// knob is the parameter's wire name (serve.KnobNames), used when the
// sweep is submitted to a remote server instead of run here.
//
//sim:wallclock -timing progress display only; the JSON artifact carries its own audited meta
func (s sweeper) sweep(name, title string, mode presim.Mode, values []int,
	knob string, apply func(*core.Config, int)) {
	fmt.Println(title)
	start := time.Now()
	if s.server != "" {
		points := make([]presim.JobPoint, len(values))
		for i, v := range values {
			points[i] = presim.JobPoint{
				Name:  fmt.Sprintf("%d", v),
				Knobs: map[string]int64{knob: int64(v)},
			}
		}
		s.submitRemote(name, presim.JobSpec{
			Name:        name,
			Workloads:   presim.WorkloadNames(),
			Modes:       []string{mode.String()},
			Points:      points,
			WarmupUops:  s.opt.WarmupUops,
			MeasureUops: s.opt.MeasureUops,
			AddBaseline: true,
		})
	} else {
		s.sweepParallel(name, mode, values, apply)
	}
	if s.timing {
		fmt.Printf("  (wall-clock %.2fs)\n", time.Since(start).Seconds())
	}
}

// submitRemote submits one job spec to the -server instance, streams its
// events (surfaced via -progress), waits for completion, and captures
// the results document into -json. The document is byte-identical to a
// local run's, whether the server simulated or served from cache.
func (s sweeper) submitRemote(name string, spec presim.JobSpec) {
	cl := presim.NewClient(s.server)
	ctx := context.Background()
	st, err := cl.Submit(ctx, spec)
	if err != nil {
		fatal(err)
	}
	var onEvent func(presim.JobEvent) error
	if s.progress {
		onEvent = func(ev presim.JobEvent) error {
			if ev.Type == "cell" {
				src := "simulated"
				if ev.Cached {
					src = "cached"
				}
				fmt.Fprintf(os.Stderr, "sweep: %d/%d done  %s/%s  %.2fs (%s)\n",
					ev.Done, ev.Total, ev.Workload, ev.Mode, ev.Seconds, src)
			}
			return nil
		}
	}
	final, err := cl.Wait(ctx, st.ID, onEvent)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  remote job %s on %s: %d unique runs, %d from cache, server wall-clock %.2fs\n",
		final.ID, s.server, final.NumUnique, final.CacheHits, final.Meta.WallClockSeconds)
	if s.jsonDir == "" {
		fmt.Println("  (pass -json DIR to capture the results document)")
		return
	}
	doc, err := cl.Result(ctx, final.ID)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(s.jsonDir, 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join(s.jsonDir, name+".json")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("  (results JSON written to %s)\n", path)
}

// sweepParallel expresses the sweep as one exp.Matrix and lets the
// orchestrator dedupe baselines and saturate the worker pool.
func (s sweeper) sweepParallel(name string, mode presim.Mode, values []int,
	apply func(*core.Config, int)) {
	points := make([]exp.Point, len(values))
	for i, v := range values {
		v := v
		points[i] = exp.Point{
			Name:  fmt.Sprintf("%d", v),
			Apply: func(c *core.Config) { apply(c, v) },
		}
	}
	m := exp.Matrix{
		Name:        name,
		Workloads:   presim.Workloads(),
		Modes:       []presim.Mode{mode},
		Points:      points,
		Options:     s.opt,
		AddBaseline: true,
	}
	plan, err := m.Expand()
	if err != nil {
		fatal(err)
	}
	set, err := plan.RunOpts(s.runOpts())
	if err != nil {
		fatal(err)
	}
	for pi, v := range values {
		fmt.Printf("  %6d: %.3fx\n", v, set.GeoMeanSpeedups(pi)[0])
	}
	if s.jsonDir != "" {
		if err := set.WriteFile(s.jsonDir, name); err != nil {
			fatal(err)
		}
	}
	s.writeTrace(set)
}

// sweepPF runs the PF grid: every runahead mechanism crossed with every
// hardware-prefetcher variant over the full suite, one exp.Matrix. The
// grid summary (geomean speedups over each variant's own OoO baseline)
// and per-variant prefetcher quality print to stdout; the full per-run
// counters land in the -json sink.
//
//sim:wallclock -timing progress display only; the JSON artifact carries its own audited meta
func (s sweeper) sweepPF() {
	fmt.Println("PF grid: mechanisms x hardware prefetchers (speedup over per-variant OoO)")
	start := time.Now()
	if s.server != "" {
		modes := make([]string, 0, len(presim.Modes()))
		for _, m := range presim.Modes() {
			modes = append(modes, m.String())
		}
		var points []presim.JobPoint
		for _, v := range presim.PrefetchVariants() {
			points = append(points, presim.JobPoint{Name: v.Name, PrefetchVariant: v.Name})
		}
		s.submitRemote("pf_grid", presim.JobSpec{
			Name:        "pf_grid",
			Workloads:   presim.WorkloadNames(),
			Modes:       modes,
			Points:      points,
			WarmupUops:  s.opt.WarmupUops,
			MeasureUops: s.opt.MeasureUops,
		})
		return
	}
	m := exp.Matrix{
		Name:      "pf_grid",
		Workloads: presim.Workloads(),
		Modes:     presim.Modes(),
		Points:    presim.PrefetchPoints(),
		Options:   s.opt,
	}
	plan, err := m.Expand()
	if err != nil {
		fatal(err)
	}
	set, err := plan.RunOpts(s.runOpts())
	if err != nil {
		fatal(err)
	}
	points := plan.Points()
	summary := make([][]float64, len(points))
	for pi := range points {
		summary[pi] = set.GeoMeanSpeedups(pi)
	}
	presim.PFGridTable(points, presim.Modes(), summary).Write(os.Stdout)
	for pi, p := range points {
		var acc, cov, tim float64
		var n int
		for wi := range m.Workloads {
			r := set.Result(pi, wi, 0) // prefetcher quality under the OoO cell
			if r.HWPrefIssued == 0 {
				continue
			}
			acc += r.HWPFAccuracy
			cov += r.HWPFCoverage
			tim += r.HWPFTimeliness
			n++
		}
		if n > 0 {
			fmt.Printf("  %-12s OoO-cell prefetch quality: accuracy %.0f%%, coverage %.0f%%, timeliness %.0f%% (mean over %d workloads)\n",
				p, 100*acc/float64(n), 100*cov/float64(n), 100*tim/float64(n), n)
		}
	}
	if s.timing {
		meta := set.Meta()
		fmt.Printf("  (wall-clock %.2fs, %d workers, GOMAXPROCS %d, %d unique runs)\n",
			time.Since(start).Seconds(), meta.EffectiveWorkers, meta.GOMAXPROCS, meta.UniqueRuns)
	}
	if s.jsonDir != "" {
		if err := set.WriteFile(s.jsonDir, "pf_grid"); err != nil {
			fatal(err)
		}
	}
	s.writeTrace(set)
}

// sweepSynth runs the population sweep: count seeded scenarios sampled
// from the default synth space, crossed with every mechanism, summarized
// as per-seed speedup distributions. The -json artifact records every
// scenario's sampled parameters (schema v3 "synth" cell field).
//
//sim:wallclock -timing progress display only; the JSON artifact carries its own audited meta
func (s sweeper) sweepSynth(count int, baseSeed uint64) {
	fmt.Printf("Synth population: %d seeded scenarios x all mechanisms (speedup over OoO)\n", count)
	start := time.Now()
	if s.server != "" {
		modes := make([]string, 0, len(presim.Modes()))
		for _, m := range presim.Modes() {
			modes = append(modes, m.String())
		}
		pop := &presim.JobPopulation{SpaceName: "default", Count: count}
		if baseSeed != 0 {
			pop.BaseSeed = fmt.Sprintf("%x", baseSeed)
		}
		s.submitRemote("synth_population", presim.JobSpec{
			Name:        "synth_population",
			Modes:       modes,
			Population:  pop,
			WarmupUops:  s.opt.WarmupUops,
			MeasureUops: s.opt.MeasureUops,
		})
		return
	}
	m := exp.Matrix{
		Name:  "synth_population",
		Modes: presim.Modes(),
		Population: &exp.Population{
			Space: presim.DefaultSynthSpace(), Count: count, BaseSeed: baseSeed,
		},
		Options: s.opt,
	}
	plan, err := m.Expand()
	if err != nil {
		fatal(err)
	}
	set, err := plan.RunOpts(s.runOpts())
	if err != nil {
		fatal(err)
	}
	points := plan.Points()
	stats := make([][]presim.PopulationStat, len(points))
	for pi := range points {
		stats[pi] = set.PopulationStats(pi)
	}
	presim.PopulationGridTable(points, stats).Write(os.Stdout)
	if s.timing {
		meta := set.Meta()
		fmt.Printf("  (wall-clock %.2fs, %d workers, %d unique runs)\n",
			time.Since(start).Seconds(), meta.EffectiveWorkers, meta.UniqueRuns)
	}
	if s.jsonDir != "" {
		if err := set.WriteFile(s.jsonDir, "synth_population"); err != nil {
			fatal(err)
		}
		fmt.Printf("  (per-seed parameters recorded in %s/synth_population.json cells[].synth)\n", s.jsonDir)
	}
	s.writeTrace(set)
}

func fatal(err error) {
	pprof.StopCPUProfile() // flush -cpuprofile data; no-op when not profiling
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
