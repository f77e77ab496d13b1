// Command sweep runs the design-space ablations of README's experiment
// index:
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
// Each sweep is an entry of the experiment catalogue (presim.Catalog):
// the command sets its window, then runs the entry's job spec on the
// parallel experiment orchestrator (internal/exp), or submits the same
// spec to a simulation server with -server. The orchestrator dedupes the
// shared OoO baselines and shards the unique runs across -workers cores,
// and -json captures the full schema-versioned results document.
// -workers 1 runs one simulation at a time; output is identical at any
// width.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	presim "repro"
	"repro/internal/exp"
)

// sweeps maps each sweep flag to its catalogue experiment and the
// renderer of its stdout summary, in run order.
var sweeps = []struct {
	flag, id, usage string
	render          func(*exp.Set)
}{
	{"sst", "a1_sst", "sweep SST size (PRE)", printSweep},
	{"emq", "a2_emq", "sweep EMQ size (PRE+EMQ)", printSweep},
	{"rathreshold", "a3_rathreshold", "sweep RA short-interval filter", printSweep},
	{"mshr", "mshr", "sweep L1D MSHR count (PRE)", printSweep},
	{"pf", "pf_grid", "run the mechanism x hardware-prefetcher grid", printPFGrid},
	{"synth", "synth_population", "run a seeded scenario-population sweep", printPopulation},
}

type options struct {
	selected  []int // indices into sweeps
	seeds     int
	synthSeed uint64
	warmup    int64
	measure   int64
	workers   int
	jsonDir   string
	timing    bool
	progress  bool
	server    string // simulation-server URL; "" = run locally
	tracefile string
	cpuprof   string
	memprof   string
}

// parseFlags parses and validates args; a usage error has already been
// reported on stderr.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	chosen := make([]*bool, len(sweeps))
	for i, s := range sweeps {
		chosen[i] = fs.Bool(s.flag, false, s.usage)
	}
	fs.IntVar(&o.seeds, "seeds", 20, "population size for -synth")
	fs.Uint64Var(&o.synthSeed, "synthseed", 0, "population base seed for -synth (0 = date-pinned default)")
	fs.Int64Var(&o.warmup, "warmup", 50_000, "warmup µops per run")
	fs.Int64Var(&o.measure, "n", 200_000, "measured µops per run")
	fs.IntVar(&o.workers, "workers", 0, "worker pool width (0 = one per CPU)")
	fs.StringVar(&o.jsonDir, "json", "", "directory to write schema-versioned results JSON into")
	fs.BoolVar(&o.timing, "time", false, "report wall-clock time per sweep")
	fs.BoolVar(&o.progress, "progress", false, "print live per-run progress to stderr as the sweep advances")
	fs.StringVar(&o.server, "server", "", "submit the sweep to a running simulation server (cmd/simd URL) instead of simulating locally; the server's result cache makes repeated sweeps cheap. Remote sweeps report cache/timing stats and write the results JSON via -json; summary tables are a local-run feature")
	fs.StringVar(&o.tracefile, "tracefile", "", "write a merged Chrome-trace (Perfetto) sidecar of the sweep's runs to this file; requires exactly one sweep selection")
	fs.StringVar(&o.cpuprof, "cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
	fs.StringVar(&o.memprof, "memprofile", "", "write a pprof heap profile at sweep end to this file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	synth := false
	for i, s := range sweeps {
		if *chosen[i] {
			o.selected = append(o.selected, i)
			synth = synth || s.flag == "synth"
		}
	}
	var err error
	usage := func(format string, a ...any) {
		if err == nil {
			err = fmt.Errorf(format, a...)
			fmt.Fprintln(stderr, "sweep:", err)
		}
	}
	switch {
	case o.server != "" && (o.tracefile != "" || o.workers != 0):
		usage("-server runs on the remote machine; -tracefile and -workers are local-run flags")
	// -tracefile writes one sidecar file per invocation; two selected
	// sweeps would silently overwrite each other's trace.
	case o.tracefile != "" && len(o.selected) != 1:
		usage("-tracefile records exactly one sweep; select exactly one of -sst, -emq, -rathreshold, -mshr, -pf, -synth")
	// A zero or negative window is always an invocation mistake: -n 0
	// would make every run fail deep inside the orchestrator with a
	// confusing per-cell error, and -warmup 0 would report cold-start
	// numbers (empty caches, untrained predictor) as if they were steady
	// state.
	case o.measure <= 0:
		usage("-n must be positive (got %d)", o.measure)
	case o.warmup <= 0:
		usage("-warmup must be positive (got %d)", o.warmup)
	case len(o.selected) == 0:
		usage("pass at least one of -sst, -emq, -rathreshold, -mshr, -pf, -synth")
	}
	// Population knobs only act under -synth; silently ignoring an
	// explicit -seeds/-synthseed would drop the requested population run.
	fs.Visit(func(f *flag.Flag) {
		if !synth && (f.Name == "seeds" || f.Name == "synthseed") {
			usage("-%s only applies to -synth (add -synth or drop the flag)", f.Name)
		}
	})
	return o, err
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}

	// Profiling hooks (after flag validation, so a usage exit never
	// leaves a truncated profile behind): hot-path regressions in the
	// simulator should be diagnosable from a real sweep without editing
	// code —
	//   sweep -sst -cpuprofile cpu.out && go tool pprof cpu.out
	// A mid-run fatal() stops the CPU profile before exiting; the heap
	// profile is written only on a successful run.
	if o.cpuprof != "" {
		f, err := os.Create(o.cpuprof)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if o.memprof != "" {
		defer func() {
			f, err := os.Create(o.memprof)
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

	for _, i := range o.selected {
		o.run(sweeps[i].id, sweeps[i].render)
	}
}

// run sets the window (and population) of one catalogue experiment and
// runs it here, printing its summary with render, or on the -server.
//
//sim:wallclock -timing progress display only; the JSON artifact carries its own audited meta
func (o options) run(id string, render func(*exp.Set)) {
	e, err := presim.CatalogEntry(id)
	if err != nil {
		fatal(err)
	}
	spec := e.Spec
	spec.WarmupUops, spec.MeasureUops = o.warmup, o.measure
	if pop := spec.Population; pop != nil {
		pop.Count = o.seeds
		if o.synthSeed != 0 {
			pop.BaseSeed = fmt.Sprintf("%x", o.synthSeed)
		}
		fmt.Printf("Synth population: %d seeded scenarios x all mechanisms (speedup over OoO)\n", pop.Count)
	} else {
		fmt.Println(e.Title)
	}
	start := time.Now()
	if o.server != "" {
		o.submitRemote(spec)
	} else {
		o.runLocal(spec, render)
	}
	if o.timing {
		fmt.Printf("  (wall-clock %.2fs)\n", time.Since(start).Seconds())
	}
}

// runLocal runs spec on this machine's worker pool, prints its summary,
// and writes the results document and the trace sidecar when asked.
func (o options) runLocal(spec presim.JobSpec, render func(*exp.Set)) {
	ro := exp.RunOptions{Workers: o.workers, Trace: o.tracefile != ""}
	if o.progress {
		// stderr, so the meter never pollutes the parseable stdout tables.
		ro.Progress = func(ev exp.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "sweep: %d/%d done  %s/%s  %.2fs (elapsed %.1fs)\n",
				ev.Done, ev.Total, ev.Workload, ev.Mode, ev.Seconds, ev.ElapsedSeconds)
		}
	}
	set, err := spec.Run(ro)
	if err != nil {
		fatal(err)
	}
	render(set)
	if o.timing {
		meta := set.Meta()
		fmt.Printf("  (%d workers, GOMAXPROCS %d, %d unique runs)\n",
			meta.EffectiveWorkers, meta.GOMAXPROCS, meta.UniqueRuns)
	}
	if o.jsonDir != "" {
		if err := set.WriteFile(o.jsonDir, spec.Name); err != nil {
			fatal(err)
		}
		if spec.Population != nil {
			fmt.Printf("  (per-seed parameters recorded in %s/%s.json cells[].synth)\n", o.jsonDir, spec.Name)
		}
	}
	if o.tracefile != "" {
		if err := set.WriteTrace(o.tracefile); err != nil {
			fatal(err)
		}
		fmt.Printf("  (trace sidecar written to %s)\n", o.tracefile)
	}
}

// printSweep prints the geometric-mean speedup of a one-mode sweep at
// each of its parameter values.
func printSweep(set *exp.Set) {
	for pi, v := range set.Plan().Points() {
		fmt.Printf("  %6s: %.3fx\n", v, set.GeoMeanSpeedups(pi)[0])
	}
}

// printPFGrid prints the grid summary (geomean speedups over each
// variant's own OoO baseline) and per-variant prefetcher quality; the
// full per-run counters land in the -json sink.
func printPFGrid(set *exp.Set) {
	points := set.Plan().Points()
	summary := make([][]float64, len(points))
	for pi := range points {
		summary[pi] = set.GeoMeanSpeedups(pi)
	}
	presim.PFGridTable(points, presim.Modes(), summary).Write(os.Stdout)
	for pi, p := range points {
		var acc, cov, tim float64
		var n int
		for wi := range set.Plan().Workloads() {
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
}

// printPopulation prints the per-seed speedup distributions of a
// population sweep.
func printPopulation(set *exp.Set) {
	points := set.Plan().Points()
	stats := make([][]presim.PopulationStat, len(points))
	for pi := range points {
		stats[pi] = set.PopulationStats(pi)
	}
	presim.PopulationGridTable(points, stats).Write(os.Stdout)
}

// submitRemote submits one job spec to the -server instance, streams its
// events (surfaced via -progress), waits for completion, and captures
// the results document into -json. The document is byte-identical to a
// local run's, whether the server simulated or served from cache.
func (o options) submitRemote(spec presim.JobSpec) {
	cl := presim.NewClient(o.server)
	ctx := context.Background()
	st, err := cl.Submit(ctx, spec)
	if err != nil {
		fatal(err)
	}
	var onEvent func(presim.JobEvent) error
	if o.progress {
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
		final.ID, o.server, final.NumUnique, final.CacheHits, final.Meta.WallClockSeconds)
	if o.jsonDir == "" {
		fmt.Println("  (pass -json DIR to capture the results document)")
		return
	}
	doc, err := cl.Result(ctx, final.ID)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(o.jsonDir, 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join(o.jsonDir, spec.Name+".json")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("  (results JSON written to %s)\n", path)
}

func fatal(err error) {
	pprof.StopCPUProfile() // flush -cpuprofile data; no-op when not profiling
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
