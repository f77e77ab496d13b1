// Command presim runs one benchmark under one (or every) runahead
// mechanism and prints the detailed statistics for that run.
//
// Usage:
//
//	presim -bench mcf -mode PRE
//	presim -bench libquantum -mode OoO -pf stride
//	presim -bench libquantum -all
//	presim -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	presim "repro"
	"repro/internal/core"
)

type options struct {
	w         presim.Workload
	mode      presim.Mode
	variant   presim.PrefetchVariant
	all, list bool
	tracefile string
	opt       presim.Options // the window; Configure is set in main
}

// parseFlags parses and validates args, resolving the benchmark, mode and
// prefetch variant by name; a usage error has already been reported on
// stderr.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	o := options{opt: presim.DefaultOptions()}
	fs := flag.NewFlagSet("presim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "mcf", "benchmark name (see -list)")
	mode := fs.String("mode", "PRE", "mechanism: OoO, RA, RA-buffer, PRE, PRE+EMQ")
	pf := fs.String("pf", "no-pf", "hardware prefetchers: no-pf, stride, best-offset, stride+bo, l1i-nl, throttled, filtered, adaptive")
	fs.BoolVar(&o.all, "all", false, "run every mechanism and compare")
	fs.BoolVar(&o.list, "list", false, "list available benchmarks and exit")
	fs.Int64Var(&o.opt.WarmupUops, "warmup", o.opt.WarmupUops, "warmup µops")
	fs.Int64Var(&o.opt.MeasureUops, "n", o.opt.MeasureUops, "measured µops")
	fs.StringVar(&o.tracefile, "tracefile", "", "write a Chrome-trace (Perfetto) sidecar of the measured window to this file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	var errW, errM, errP error
	o.w, errW = presim.WorkloadByName(*bench)
	o.mode, errM = presim.ParseMode(*mode)
	o.variant, errP = presim.PrefetchVariantByName(*pf)
	err := errors.Join(errW, errM, errP)
	switch {
	case err != nil:
	case o.all && o.tracefile != "":
		err = fmt.Errorf("-tracefile records a single run; drop -all or pick one -mode")
	case o.opt.MeasureUops <= 0:
		err = fmt.Errorf("-n must be positive (got %d)", o.opt.MeasureUops)
	case o.opt.WarmupUops < 0:
		err = fmt.Errorf("-warmup must be non-negative (got %d)", o.opt.WarmupUops)
	}
	if err != nil {
		fmt.Fprintln(stderr, "presim:", err)
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

	if o.list {
		for _, w := range presim.Workloads() {
			fmt.Printf("%-12s %-9s chains=%d\n", w.Name, w.Class, w.Chains)
		}
		return
	}

	w, variant, opt := o.w, o.variant, o.opt
	opt.Configure = func(c *core.Config) { c.ApplyPrefetch(variant) }

	if o.all {
		modes := presim.Modes()
		results, err := presim.RunMatrix([]presim.Workload{w}, modes, opt)
		if err != nil {
			fatal(err)
		}
		base := results[0][0]
		fmt.Printf("%s (%s, %d µops measured)\n\n", w.Name, w.Class, opt.MeasureUops)
		fmt.Printf("%-10s %8s %9s %9s %10s %8s\n", "mode", "IPC", "speedup", "entries", "interval", "energy")
		for mi, m := range modes {
			r := results[0][mi]
			fmt.Printf("%-10s %8.3f %8.2fx %9d %10.0f %+7.1f%%\n",
				m, r.IPC, r.Speedup(base), r.Entries, r.IntervalMean,
				100*r.Energy.SavingsVs(base.Energy))
		}
		return
	}

	var rec *presim.TraceRecorder
	if o.tracefile != "" {
		rec = presim.NewTraceRecorder(fmt.Sprintf("%s/%s", w.Name, o.mode))
		opt.Trace = rec
	}
	r, err := presim.Run(w, o.mode, opt)
	if err != nil {
		fatal(err)
	}
	if rec != nil {
		if err := rec.WriteFile(o.tracefile); err != nil {
			fatal(err)
		}
		fmt.Printf("trace           %s (%d events, %d runahead episodes)\n",
			o.tracefile, len(rec.Events()), rec.Episodes())
	}
	fmt.Printf("benchmark       %s (%s)\n", r.Workload, w.Class)
	fmt.Printf("mechanism       %s\n", r.Mode)
	if variant.L1D.Enabled() || variant.L2.Enabled() {
		fmt.Printf("prefetchers     %s\n", variant.Name)
	}
	fmt.Printf("cycles          %d\n", r.Cycles)
	fmt.Printf("committed       %d\n", r.Committed)
	fmt.Printf("IPC             %.3f\n", r.IPC)
	fmt.Printf("LLC MPKI        %.1f\n", r.L3MPKI)
	hitPct := func(hits, misses int64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return 100 * float64(hits) / float64(hits+misses)
	}
	fmt.Printf("L1D             %d hits / %d misses (%.1f%%)\n", r.L1DHits, r.L1DMisses, hitPct(r.L1DHits, r.L1DMisses))
	fmt.Printf("L2              %d hits / %d misses (%.1f%%)\n", r.L2Hits, r.L2Misses, hitPct(r.L2Hits, r.L2Misses))
	fmt.Printf("L3              %d hits / %d misses (%.1f%%)\n", r.L3Hits, r.L3Misses, hitPct(r.L3Hits, r.L3Misses))
	fmt.Printf("DRAM reads      %d  writes %d\n", r.DRAMReads, r.DRAMWrites)
	if r.HWPrefIssued > 0 || r.HWPrefDropped > 0 || r.HWPrefRedundant > 0 {
		fmt.Printf("hw prefetch     %d issued, %d dropped, %d redundant, %d fills, %d useful\n",
			r.HWPrefIssued, r.HWPrefDropped, r.HWPrefRedundant, r.HWPrefFills, r.HWPrefUseful)
		fmt.Printf("hw pf quality   accuracy %.0f%%, coverage %.0f%%, timeliness %.0f%%\n",
			100*r.HWPFAccuracy, 100*r.HWPFCoverage, 100*r.HWPFTimeliness)
	}
	fmt.Printf("branch mispred  %d\n", r.BranchMispredicts)
	fmt.Printf("window stalls   %d cycles\n", r.FullWindowStall)
	if r.Mode != presim.ModeOoO {
		fmt.Printf("runahead        %d entries (%d skipped), %d cycles\n",
			r.Entries, r.EntriesSkipped, r.RunaheadCycles)
		fmt.Printf("interval mean   %.0f cycles (%.0f%% under 20)\n",
			r.IntervalMean, 100*r.IntervalFracBelow20)
		fmt.Printf("prefetches      %d issued, %d fills, %d useful\n",
			r.Prefetches, r.PrefetchFills, r.PrefetchUseful)
		if r.RefillPenaltyCount > 0 {
			fmt.Printf("refill penalty  %.0f cycles mean over %d exits\n",
				r.RefillPenaltyMean, r.RefillPenaltyCount)
		}
		fmt.Printf("free at entry   IQ %.0f%%, int regs %.0f%%, fp regs %.0f%%\n",
			100*r.FreeIQFrac, 100*r.FreeIntFrac, 100*r.FreeFPFrac)
	}
	fmt.Printf("energy          %.3g J (core dyn %.3g, core static %.3g, mem dyn %.3g, DRAM static %.3g)\n",
		r.Energy.Total(), r.Energy.CoreDynamic, r.Energy.CoreStatic,
		r.Energy.MemDynamic, r.Energy.DRAMStatic)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "presim:", err)
	os.Exit(1)
}
