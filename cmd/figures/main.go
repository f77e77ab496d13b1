// Command figures regenerates every table and figure of the paper's
// evaluation, plus the in-text measurements, from the simulator. README's
// experiment index maps each artifact to its paper section and to the
// catalogue experiment (presim.Catalog) whose job spec it runs.
//
// Usage:
//
//	figures                # everything
//	figures -only fig2     # one artifact: table1, fig2, fig3, e4...e9, pf
//	figures -csv out/      # additionally write CSV files
//	figures -n 300000      # measured window per run
//
// The pf artifact is the PRE-vs-prefetch-vs-combined grid: every
// mechanism crossed with the standard hardware-prefetcher variants.
//
// The synth artifact is the population-robustness grid: -seeds scenarios
// sampled from the default synth space (date-pinned base seed), every
// mechanism per scenario, summarized as per-seed speedup distributions —
// the "does the paper's conclusion survive scenario diversity?" figure.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	presim "repro"
	"repro/internal/core"
	"repro/internal/exp"
)

// artifacts are the names -only accepts, in output order.
var artifacts = []string{"table1", "fig2", "fig3", "e4", "e5", "e6", "e7", "e8", "e9", "pf", "synth"}

type options struct {
	only, csvDir, jsonDir string
	warmup, measure       int64
	workers, seeds        int
	progress              bool
}

// parseFlags parses and validates args; a usage error has already been
// reported on stderr.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.only, "only", "", "emit a single artifact: "+strings.Join(artifacts, ", "))
	fs.StringVar(&o.csvDir, "csv", "", "directory to also write CSV tables into")
	fs.StringVar(&o.jsonDir, "json", "", "directory to also write the full results JSON into")
	fs.Int64Var(&o.warmup, "warmup", 50_000, "warmup µops per run")
	fs.Int64Var(&o.measure, "n", 300_000, "measured µops per run")
	fs.IntVar(&o.workers, "workers", 0, "worker pool width (0 = one per CPU)")
	fs.IntVar(&o.seeds, "seeds", 16, "population size for the synth artifact")
	fs.BoolVar(&o.progress, "progress", false, "print live per-run progress to stderr as each sweep advances")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	var err error
	switch {
	case o.only != "" && !slices.Contains(artifacts, o.only):
		err = fmt.Errorf("-only %q is not an artifact (valid: %s)", o.only, strings.Join(artifacts, ", "))
	case o.measure <= 0:
		err = fmt.Errorf("-n must be positive (got %d)", o.measure)
	case o.warmup < 0:
		err = fmt.Errorf("-warmup must be non-negative (got %d)", o.warmup)
	case o.seeds < 1:
		err = fmt.Errorf("-seeds must be at least 1 (got %d)", o.seeds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "figures:", err)
	}
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

	ro := exp.RunOptions{Workers: o.workers}
	if o.progress {
		ro.Progress = func(ev exp.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "figures: %d/%d done  %s/%s  %.2fs (elapsed %.1fs)\n",
				ev.Done, ev.Total, ev.Workload, ev.Mode, ev.Seconds, ev.ElapsedSeconds)
		}
	}
	// run runs one catalogue experiment at the -n/-warmup window (and a
	// -seeds population), writing its results document under -json.
	run := func(id string) *exp.Set {
		e, err := presim.CatalogEntry(id)
		if err != nil {
			fatal(err)
		}
		spec := e.Spec
		spec.WarmupUops, spec.MeasureUops = o.warmup, o.measure
		if spec.Population != nil {
			spec.Population.Count = o.seeds
		}
		set, err := spec.Run(ro)
		if err != nil {
			fatal(err)
		}
		if o.jsonDir != "" {
			if err := set.WriteFile(o.jsonDir, id); err != nil {
				fatal(err)
			}
		}
		return set
	}

	want := func(name string) bool { return o.only == "" || o.only == name }

	if want("table1") {
		printTable1()
	}

	var results [][]presim.Result
	modes := presim.Modes()
	if want("fig2") || want("fig3") || want("e4") || want("e5") || want("e7") || want("e9") {
		results = run("figures").Grid(0)
	}

	emit := func(name string, t *presim.Table) {
		fmt.Println()
		t.Write(os.Stdout)
		if o.csvDir != "" {
			if err := os.MkdirAll(o.csvDir, 0o755); err != nil {
				fatal(err)
			}
			f, err := os.Create(filepath.Join(o.csvDir, name+".csv"))
			if err != nil {
				fatal(err)
			}
			t.WriteCSV(f)
			f.Close()
		}
	}

	if want("fig2") {
		emit("fig2", presim.Fig2Table(results, modes))
	}
	if want("fig3") {
		emit("fig3", presim.Fig3Table(results, modes))
	}
	if want("e4") {
		emit("e4_refill", e4Table(results, modes))
	}
	if want("e5") {
		emit("e5_intervals", e5Table(results, modes))
	}
	if want("e6") {
		emit("e6_free_exit", e6Table(run("e6_free_exit")))
	}
	if want("e7") {
		emit("e7_free_resources", e7Table(results, modes))
	}
	if want("e8") {
		printE8()
	}
	if want("e9") {
		emit("e9_invocations", e9Table(results, modes))
	}
	if want("pf") {
		set := run("pf_grid")
		points := set.Plan().Points()
		summary := make([][]float64, len(points))
		for pi := range points {
			summary[pi] = set.GeoMeanSpeedups(pi)
		}
		emit("pf_grid", presim.PFGridTable(points, modes, summary))
		// Diagnostics for the most-combined variant (the last point: the
		// full adaptive L1I+throttle+filter stack), plus the interference
		// view of the same point (filtered-RA is only non-zero with the
		// filter on).
		last := set.Grid(len(points) - 1)
		emit("pf_detail", presim.PrefetchDetailTable(last, modes))
		emit("pf_interference", presim.PFInterferenceTable(last, modes))
	}
	if want("synth") {
		set := run("synth_population")
		points := set.Plan().Points()
		stats := make([][]presim.PopulationStat, len(points))
		for pi := range points {
			stats[pi] = set.PopulationStats(pi)
		}
		emit("synth_population", presim.PopulationGridTable(points, stats))
	}
	if o.only == "" {
		emit("runahead_detail", presim.RunaheadDetailTable(results, modes))
	}
}

// printTable1 dumps the baseline configuration (paper Table 1).
func printTable1() {
	cfg := presim.DefaultConfig(presim.ModePRE)
	m := cfg.Mem
	fmt.Println("Table 1: baseline configuration")
	fmt.Printf("  Core            %d MHz out-of-order, ROB %d, IQ/LQ/SQ %d/%d/%d, width %d, front-end depth %d\n",
		m.DRAM.CoreClockMHz, cfg.ROBSize, cfg.IQSize, cfg.LQSize, cfg.SQSize, cfg.Width, cfg.Fetch.Depth)
	fmt.Printf("  Register files  %d int, %d fp\n", cfg.Rename.IntPRF, cfg.Rename.FPPRF)
	fmt.Printf("  SST             %d entries, fully associative, LRU\n", cfg.SSTSize)
	fmt.Printf("  PRDQ            %d entries\n", cfg.PRDQSize)
	fmt.Printf("  EMQ             %d entries\n", cfg.EMQSize)
	fmt.Printf("  L1 I-cache      %d KB, assoc %d, %d cyc\n", m.L1I.SizeBytes>>10, m.L1I.Assoc, m.L1I.HitLatency)
	fmt.Printf("  L1 D-cache      %d KB, assoc %d, %d cyc\n", m.L1D.SizeBytes>>10, m.L1D.Assoc, m.L1D.HitLatency)
	fmt.Printf("  L2 cache        %d KB, assoc %d, %d cyc\n", m.L2.SizeBytes>>10, m.L2.Assoc, m.L2.HitLatency)
	fmt.Printf("  L3 cache        %d MB, assoc %d, %d cyc\n", m.L3.SizeBytes>>20, m.L3.Assoc, m.L3.HitLatency)
	fmt.Printf("  Memory          DDR3-1600, %d MHz, ranks %d, banks %d, page %d B, bus %d bits, tRP-tCL-tRCD %d-%d-%d\n",
		m.DRAM.MemClockMHz, m.DRAM.Ranks, m.DRAM.Ranks*m.DRAM.BanksPerRank, m.DRAM.RowBytes,
		m.DRAM.BusBytes*8, m.DRAM.TRP, m.DRAM.TCL, m.DRAM.TRCD)
}

// e4Table: measured flush-to-window-refilled penalty for the flushing
// mechanisms (paper estimate: ~56 cycles).
func e4Table(results [][]presim.Result, modes []presim.Mode) *presim.Table {
	t := newTable("E4: runahead exit refill penalty (paper estimate: 8 FE + 48 ROB = 56 cycles)",
		"benchmark", "RA refill", "RA-buffer refill")
	for _, row := range results {
		var ra, rab string
		for mi, m := range modes {
			switch m {
			case core.ModeRA:
				ra = fmt.Sprintf("%.0f", row[mi].RefillPenaltyMean)
			case core.ModeRABuffer:
				rab = fmt.Sprintf("%.0f", row[mi].RefillPenaltyMean)
			}
		}
		t.AddRow(row[0].Workload, ra, rab)
	}
	return t
}

// e5Table: fraction of runahead intervals shorter than 20 cycles
// (paper: 27% for memory-intensive workloads, measured without the
// short-interval filter — the PRE column is the comparable one).
func e5Table(results [][]presim.Result, modes []presim.Mode) *presim.Table {
	t := newTable("E5: short runahead intervals (paper: 27% below 20 cycles)",
		"benchmark", "PRE mean", "PRE <20cyc", "RA mean (filtered)")
	for _, row := range results {
		var preMean, preShort, raMean string
		for mi, m := range modes {
			switch m {
			case core.ModePRE:
				preMean = fmt.Sprintf("%.0f", row[mi].IntervalMean)
				preShort = fmt.Sprintf("%.0f%%", 100*row[mi].IntervalFracBelow20)
			case core.ModeRA:
				raMean = fmt.Sprintf("%.0f", row[mi].IntervalMean)
			}
		}
		t.AddRow(row[0].Workload, preMean, preShort, raMean)
	}
	return t
}

// e6Table: RA with free (snapshot) exit versus plain RA — the paper's
// "20.6% if the window were not discarded" potential. The free-exit
// point's OoO cells share the flush-exit point's baseline runs.
func e6Table(set *exp.Set) *presim.Table {
	t := newTable("E6: RA speedup with zero-cost exit (paper: 14.5% -> 20.6% potential)",
		"benchmark", "OoO IPC", "RA", "RA free-exit")
	for wi, w := range set.Plan().Workloads() {
		base, _ := set.Baseline(0, wi)
		t.AddRow(w.Name,
			fmt.Sprintf("%.3f", base.IPC),
			fmt.Sprintf("%.3f", set.Speedup(0, wi, 1)),
			fmt.Sprintf("%.3f", set.Speedup(1, wi, 1)))
	}
	return t
}

// e7Table: free resources at runahead entry (paper Section 3.4: 37% IQ,
// 51% int regs, 59% fp regs).
func e7Table(results [][]presim.Result, modes []presim.Mode) *presim.Table {
	t := newTable("E7: free resources at runahead entry (paper: IQ 37%, int 51%, fp 59%)",
		"benchmark", "IQ free", "int free", "fp free")
	preIdx := -1
	for mi, m := range modes {
		if m == core.ModePRE {
			preIdx = mi
		}
	}
	for _, row := range results {
		r := row[preIdx]
		t.AddRow(r.Workload,
			fmt.Sprintf("%.0f%%", 100*r.FreeIQFrac),
			fmt.Sprintf("%.0f%%", 100*r.FreeIntFrac),
			fmt.Sprintf("%.0f%%", 100*r.FreeFPFrac))
	}
	return t
}

// printE8 accounts the hardware budget (paper Section 3.6).
func printE8() {
	cfg := presim.DefaultConfig(presim.ModePRE)
	sst := cfg.SSTSize * 4
	prdq := cfg.PRDQSize * 4
	ratExt := 64 * 4 // 64 RAT entries extended by 4 bytes
	emq := cfg.EMQSize * 4
	fmt.Println("\nE8: hardware budget (paper Section 3.6)")
	fmt.Printf("  SST      %4d entries x 4 B = %4d B (paper: 1 KB)\n", cfg.SSTSize, sst)
	fmt.Printf("  PRDQ     %4d entries x 4 B = %4d B (paper: 768 B)\n", cfg.PRDQSize, prdq)
	fmt.Printf("  RAT ext    64 entries x 4 B = %4d B (paper: 256 B)\n", ratExt)
	fmt.Printf("  PRE total                   = %4d B (paper: 2 KB)\n", sst+prdq+ratExt)
	fmt.Printf("  EMQ      %4d entries x 4 B = %4d B (paper: +3 KB)\n", cfg.EMQSize, emq)
}

// e9Table: runahead invocation frequency relative to RA (paper: PRE
// 1.62x, PRE+EMQ 1.95x).
func e9Table(results [][]presim.Result, modes []presim.Mode) *presim.Table {
	t := newTable("E9: runahead invocations relative to RA (paper: PRE 1.62x, PRE+EMQ 1.95x)",
		"benchmark", "RA", "PRE", "PRE/RA", "PRE+EMQ", "PRE+EMQ/RA")
	idx := map[presim.Mode]int{}
	for mi, m := range modes {
		idx[m] = mi
	}
	var sumPre, sumEmq, n float64
	for _, row := range results {
		ra := row[idx[core.ModeRA]].Entries
		pre := row[idx[core.ModePRE]].Entries
		emq := row[idx[core.ModePREEMQ]].Entries
		ratio := func(a, b int64) string {
			if b == 0 {
				return "-"
			}
			return fmt.Sprintf("%.2fx", float64(a)/float64(b))
		}
		if ra > 0 {
			sumPre += float64(pre) / float64(ra)
			sumEmq += float64(emq) / float64(ra)
			n++
		}
		t.AddRow(row[0].Workload,
			fmt.Sprintf("%d", ra), fmt.Sprintf("%d", pre), ratio(pre, ra),
			fmt.Sprintf("%d", emq), ratio(emq, ra))
	}
	if n > 0 {
		t.AddRow("mean", "", "", fmt.Sprintf("%.2fx", sumPre/n), "", fmt.Sprintf("%.2fx", sumEmq/n))
	}
	return t
}

func newTable(title string, header ...string) *presim.Table {
	t := &presim.Table{Title: title, Header: header}
	return t
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
