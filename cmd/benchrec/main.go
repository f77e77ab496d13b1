// Command benchrec is the repository's benchmark. One invocation runs one
// named workload, prints every metric by name with its unit, checks that
// the simulated outputs are correct, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) reports the per-layer ledger. Run it from the repository
// root through run.sh, which builds the binary first:
//
//	bash cmd/benchrec/run.sh --workload suite-ra [--seed 1] [--seconds 50] [--trace 0|1] [--out f.json]
//
// README.md describes the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/workload/synth"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string
	smoke    bool
	update   bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchrec", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: suite-ra or pf-grid")
	seed := fs.String("seed", fmt.Sprintf("%x", synth.DefaultBaseSeed), "hex seed drawing the order of the sweep's workloads")
	fs.IntVar(&o.seconds, "seconds", 50, "repeat repetitions while the next one ends within this many seconds (at least 3 run)")
	trace := fs.String("trace", "0", "1 runs the traced pass and reports the per-layer metrics")
	fs.StringVar(&o.out, "out", "", "merge this workload's metrics into a results file")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny windows and job counts, for the end-to-end test")
	fs.BoolVar(&o.update, "update", false, "re-pin the workload's digests in "+digestFile+" (default seed only)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	var err error
	if o.seed, err = strconv.ParseUint(strings.TrimPrefix(*seed, "0x"), 16, 64); err != nil {
		return o, fmt.Errorf("-seed must be hex: %w", err)
	}
	if o.trace, err = strconv.ParseBool(*trace); err != nil {
		return o, fmt.Errorf("-trace must be 0 or 1: %w", err)
	}
	if o.seconds < 0 {
		return o, fmt.Errorf("-seconds must not be negative")
	}
	if o.update && (o.seed != synth.DefaultBaseSeed || o.smoke || o.trace) {
		return o, fmt.Errorf("-update pins digests at the default seed %x with full windows, untraced",
			synth.DefaultBaseSeed)
	}
	return o, nil
}

// outcome is a finished run.
type outcome struct {
	correct           bool
	attempted, failed int
	metrics           map[string]metric
}

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(stderr, "benchrec: %v\n", err)
		}
		return 2
	}
	res, err := execute(opt, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchrec: %v\n", err)
		return 1
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, make(map[string]value, len(res.metrics))}
	for name, m := range res.metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "benchrec: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.correct {
		return 1
	}
	return 0
}

// execute runs one workload and prints its metrics, one per line.
func execute(opt options, stdout, stderr io.Writer) (outcome, error) {
	var res outcome
	wl, err := workloadByName(opt.workload)
	if err != nil {
		return res, err
	}
	set := full
	if opt.smoke {
		set = smoke
	}
	var pinned map[string]string
	if !opt.smoke && !opt.update {
		table, err := loadDigests()
		if err != nil {
			return res, err
		}
		pinned = table[wl.name]
		if pinned == nil {
			pinned = map[string]string{}
		}
	}
	tmp, err := scratchDir()
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(tmp)
	r := &runner{
		wl:   wl,
		set:  set,
		spec: wl.specFor(set, opt.seed),
		tmp:  tmp,
		// One connection at a time: the client is one closed-loop user.
		hc:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}},
		chk: newChecker(pinned),
	}
	defer r.hc.CloseIdleConnections()
	fmt.Fprintf(stdout, "benchrec: workload %s, seed %x, traced %v, %d workers, GOMAXPROCS %d\n",
		wl.name, opt.seed, opt.trace, workers, runtime.GOMAXPROCS(0))

	defs := endToEnd
	var vals metrics
	if opt.trace {
		defs = perLayer()
		vals, err = r.tracedRun(stdout)
	} else {
		vals, err = r.untracedRun(time.Duration(opt.seconds)*time.Second, stdout)
	}
	if err == nil {
		res.metrics, err = vals.finish(defs)
	}
	if err != nil {
		return res, err
	}
	res.attempted, res.failed = r.chk.attempted, r.chk.failed
	res.correct = res.failed == 0 && res.attempted > 0
	for _, p := range r.chk.problems {
		fmt.Fprintf(stderr, "benchrec: FAILED %s\n", p)
	}
	for _, d := range defs {
		m := res.metrics[d.name]
		fmt.Fprintf(stdout, "%-34s %14.6g %-10s n=%-3d q1=%.6g q3=%.6g\n", d.name, m.Value, m.Unit, m.N, m.Q1, m.Q3)
	}
	fmt.Fprintf(stdout, "ops: %d attempted, %d failed\n", res.attempted, res.failed)
	if opt.update && res.correct {
		if err := writeDigests(wl.name, r.chk.seen); err != nil {
			return res, err
		}
		fmt.Fprintf(stdout, "pinned %d cell digests in %s\n", len(r.chk.seen), digestFile)
	}
	if opt.out != "" {
		if err := writeOut(opt, res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// untracedRun runs repetitions while the next one is predicted to end
// within the budget (at least set.minReps), then the service leg, and
// returns the end-to-end metrics.
//
//sim:wallclock the run budget is a host measurement, never fed into a simulation
func (r *runner) untracedRun(budget time.Duration, stdout io.Writer) (metrics, error) {
	start := time.Now()
	var reps []repOut
	for n := 0; n < r.set.minReps || time.Since(start)*time.Duration(n+1)/time.Duration(n) <= budget; n++ {
		o, err := r.rep(0)
		if err != nil {
			return nil, err
		}
		r.chk.simulated(r.spec.Name, o.doc)
		reps = append(reps, o)
	}
	last := reps[len(reps)-1]
	svc, err := r.serviceLeg(last.fresh, 0)
	if err != nil {
		return nil, err
	}

	// Host times are scaled to the yardstick's nominal speed (see
	// yardstick.go). A cell lasts 0.1-0.7 s and averages the host's speed
	// over that time, which is bimodal (a neighbour is busy or not), so
	// simulation time is matched with the yardstick's mean over the run's
	// cells, trimmed of the scans a collection or a preemption hit. A
	// set-up lasts about a millisecond, as short as one scan, so set-up
	// time is matched with the yardstick's median before the set-ups.
	var setups, setupYards, cellYards, rawThrs, rss []float64
	var uops, cellSecs float64
	for _, o := range reps {
		setups = append(setups, o.setups...)
		setupYards = append(setupYards, o.setupYards...)
		cellYards = append(cellYards, o.cellYards...)
		uops += float64(o.uops)
		cellSecs += o.cellSecs
		rawThrs = append(rawThrs, workers*float64(o.uops)/o.cellSecs)
		rss = append(rss, float64(o.peakRSS)/(1<<20))
	}
	simSlow := trimmedMean(cellYards, 0.1) / yardNominal.Seconds()
	setupSlow := median(setupYards) / yardNominal.Seconds()
	rawThr := workers * uops / cellSecs
	fmt.Fprintf(stdout, "host: yardstick %.3gx nominal while simulating, %.3gx at set-up; raw sim_uops_per_s %.6g, raw setup_s %.6g\n",
		simSlow, setupSlow, rawThr, median(setups))
	vals := metrics{}
	vals.put("sim_uops_per_s", simSlow*rawThr, scaled(rawThrs, simSlow))
	vals.median("setup_s", scaled(setups, 1/setupSlow))
	vals.median("peak_rss_mb", rss)
	vals.median("job_warm_p50_ms", millis(svc.warm))
	vals.median("job_disk_warm_ms", millis(svc.disk))
	return vals, nil
}

// scaled returns xs multiplied by f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// tracedRun runs one untraced repetition as the overhead baseline, then
// the traced pass — one repetition plus the service leg, with spans and a
// CPU profile — and then the direct-call probes.
func (r *runner) tracedRun(stdout io.Writer) (metrics, error) {
	vals := metrics{}
	base, err := r.rep(0)
	if err != nil {
		return nil, err
	}
	r.chk.simulated(r.spec.Name, base.doc)

	pass, err := r.tracedPass()
	if err != nil {
		return nil, err
	}
	o := pass.rep
	fmt.Fprintf(stdout, "spans: %s\nprofile: %s\n", pass.spansPath, pass.profPath)
	cells := r.chk.simulated(r.spec.Name, o.doc)

	vals.set("trace.overhead_pct", 100*(o.wall/base.wall-1))
	vals.set("go.alloc_bytes_per_kuop", float64(pass.alloc)/(float64(o.uops)/1000))
	vals.set("go.gc_cycles", float64(pass.gcs))
	var total time.Duration
	for _, ns := range pass.layers {
		total += ns
	}
	for _, l := range layers {
		if l == "other" {
			continue
		}
		ns := pass.layers[l]
		vals.set("layer."+l+".self_pct", 100*float64(ns)/float64(total))
		vals.set("layer."+l+".ns_per_uop", float64(ns)/float64(o.uops))
	}
	vals.set("layer.coverage_pct", 100*float64(total-pass.layers["other"])/float64(total))
	cellMetrics(cells, vals)
	metaMetrics(o.meta, vals)
	serviceMetrics(pass.svc, vals)
	vals.set("exp.expand_ms", totalSeconds(pass.spans, "Expand")*1e3/float64(len(o.setups)))
	vals.set("exp.encode_ms", totalSeconds(pass.spans, "WriteJSON")*1e3)

	if err := cacheProbe(o.fresh, func() string { return r.newDir("probe") }, vals); err != nil {
		return nil, err
	}
	progs, err := programs(r.spec)
	if err != nil {
		return nil, err
	}
	if err := coreProbe(progs, r.set, vals); err != nil {
		return nil, err
	}
	genProbe(progs, vals)
	if err := memProbe(progs, vals); err != nil {
		return nil, err
	}
	if err := chainProbe(vals); err != nil {
		return nil, err
	}
	return vals, nil
}

// passOut is what the traced pass recorded.
type passOut struct {
	rep                 repOut
	svc                 serviceOut
	spans               []span
	layers              map[string]time.Duration
	alloc               uint64 // bytes allocated during the pass
	gcs                 uint32 // GC cycles during the pass
	spansPath, profPath string
}

// tracedPass runs one repetition and the service leg under the span
// tracer and the CPU profiler, and folds the profile into layers. The
// documents are checked afterwards, outside the profile.
func (r *runner) tracedPass() (passOut, error) {
	var out passOut
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return out, err
	}
	out.spansPath = filepath.Join(dir, r.wl.name+".spans.json")
	out.profPath = filepath.Join(dir, r.wl.name+".cpu.pprof")
	f, err := os.Create(out.profPath)
	if err != nil {
		return out, err
	}
	defer f.Close()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := pprof.StartCPUProfile(f); err != nil {
		return out, err
	}
	r.tr = newTracer()
	root := r.tr.begin("pass", 0)
	out.rep, err = r.rep(root)
	if err == nil {
		out.svc, err = r.serviceLeg(out.rep.fresh, root)
	}
	r.tr.end(root)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	tr := r.tr
	r.tr = nil
	if err != nil {
		return out, err
	}
	if err := f.Close(); err != nil {
		return out, err
	}
	out.alloc = m1.TotalAlloc - m0.TotalAlloc
	out.gcs = m1.NumGC - m0.NumGC
	out.spans = tr.finished()
	if err := writeSpans(out.spansPath, out.spans); err != nil {
		return out, err
	}
	out.layers, err = foldProfile(out.profPath)
	return out, err
}

// cellMetrics derives the memory, prefetch and branch ratios from the
// pass's unique simulated cells.
func cellMetrics(cells []exp.Cell, vals metrics) {
	var committed, l1d, l3, dram, issued, useful, filtered, mispred int64
	for _, c := range cells {
		if c.Shared {
			continue
		}
		r := c.Result
		committed += r.Committed
		l1d += r.L1DMisses
		l3 += r.L3Misses
		dram += r.DRAMReads
		issued += r.HWPrefIssued
		useful += r.HWPrefUseful
		filtered += r.HWPrefFilteredRA
		mispred += r.BranchMispredicts
	}
	pki := func(n int64) float64 { return 1000 * float64(n) / float64(committed) }
	vals.set("mem.l1d_mpki", pki(l1d))
	vals.set("mem.l3_mpki", pki(l3))
	vals.set("mem.dram_reads_pki", pki(dram))
	vals.set("prefetch.issued_pki", pki(issued))
	accuracy := 0.0
	if issued > 0 {
		accuracy = float64(useful) / float64(issued)
	}
	vals.set("prefetch.accuracy", accuracy)
	vals.set("prefetch.filtered_ra_pki", pki(filtered))
	vals.set("frontend.mispredicts_pki", pki(mispred))
}

// metaMetrics derives the orchestrator metrics from the pass's RunMeta.
func metaMetrics(m exp.RunMeta, vals metrics) {
	vals.set("exp.worker_utilization", m.CellSecondsTotal/(m.WallClockSeconds*float64(m.EffectiveWorkers)))
	vals.set("exp.cell_max_s", m.CellSecondsMax)
	vals.set("exp.unique_runs", float64(m.UniqueRuns))
}

// serviceMetrics derives the client-side job timings of the warm phase.
func serviceMetrics(svc serviceOut, vals metrics) {
	var submit, wait, result, size []float64
	for _, j := range svc.warm {
		submit = append(submit, j.submit.Seconds()*1e3)
		wait = append(wait, j.wait.Seconds()*1e3)
		result = append(result, j.result.Seconds()*1e3)
		size = append(size, float64(len(j.doc))/1024)
	}
	vals.median("serve.submit_ms", submit)
	vals.median("serve.wait_ms", wait)
	vals.median("serve.result_ms", result)
	vals.median("serve.result_kb", size)
	warm := millis(svc.warm)
	p95, _ := tail(warm, 95)
	vals.put("serve.warm_p95_ms", p95, warm)
	vals.set("serve.cache.hit_rate", svc.hitRate)
}
