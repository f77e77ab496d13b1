// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus engineering micro-benchmarks for the simulator
// substrates. Custom metrics carry the reproduced quantities:
//
//	go test -bench=Fig2 -benchmem        # Figure 2 speedups, per benchmark
//	go test -bench=Fig3                  # Figure 3 energy savings
//	go test -bench=E4                    # refill penalty (§2.4, ~56 cycles)
//	go test -bench=. -benchmem           # everything
//
// Metrics are emitted per sub-benchmark ("speedup_<mode>" for Figure 2,
// "saving_pct_<mode>" for Figure 3, experiment-specific units for the
// in-text measurements E4-E9), except the A1/A2 ablations, which run as a
// single exp-orchestrated sweep per benchmark and emit one suffixed
// metric per size ("speedup_PRE_<entries>"). The Fig2/Fig3/E6/A1/A2
// benchmarks run their catalogue experiments (README's experiment index)
// narrowed to their workloads.
package presim_test

import (
	"testing"

	presim "repro"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/exp"
	"repro/internal/rename"
	"repro/internal/runahead"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workload"
)

// benchOpt keeps per-iteration cost moderate; cmd/figures uses larger
// windows by default.
func benchOpt() presim.Options {
	opt := presim.DefaultOptions()
	opt.WarmupUops = 20_000
	opt.MeasureUops = 100_000
	return opt
}

// metricName flattens a mode name into a metric suffix.
func metricName(prefix string, m presim.Mode) string {
	s := map[presim.Mode]string{
		presim.ModeRA: "RA", presim.ModeRABuffer: "RAbuf",
		presim.ModePRE: "PRE", presim.ModePREEMQ: "PREEMQ",
	}[m]
	return prefix + "_" + s
}

// BenchmarkTable1Config exercises machine construction with the paper's
// Table 1 configuration (E1) and reports the runahead structures' storage.
func BenchmarkTable1Config(b *testing.B) {
	w, _ := presim.WorkloadByName("mcf")
	for i := 0; i < b.N; i++ {
		cfg := presim.DefaultConfig(presim.ModePRE)
		if err := cfg.Validate(); err != nil {
			b.Fatal(err)
		}
		c, err := core.New(cfg, w.New())
		if err != nil {
			b.Fatal(err)
		}
		_ = c
	}
	b.ReportMetric(float64(runahead.NewSST(256).StorageBytes()), "SST_bytes")
	b.ReportMetric(float64(runahead.NewPRDQ(192).StorageBytes()), "PRDQ_bytes")
	b.ReportMetric(float64(runahead.NewEMQ(768).StorageBytes()), "EMQ_bytes")
}

// runCatalog runs the catalogue experiment id narrowed to the named
// workloads, at the benchmark window.
func runCatalog(b *testing.B, id string, workloads ...string) *presim.ExperimentSet {
	b.Helper()
	e, err := presim.CatalogEntry(id)
	if err != nil {
		b.Fatal(err)
	}
	spec := e.Spec
	spec.Workloads = workloads
	spec.WarmupUops, spec.MeasureUops = benchOpt().WarmupUops, benchOpt().MeasureUops
	set, err := spec.Run(exp.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return set
}

// BenchmarkFig2 reproduces Figure 2: per-benchmark speedups of every
// runahead mechanism over the out-of-order baseline.
func BenchmarkFig2(b *testing.B) {
	modes := presim.Modes()
	for _, w := range presim.Workloads() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var set *presim.ExperimentSet
			for i := 0; i < b.N; i++ {
				set = runCatalog(b, "figures", w.Name)
			}
			for mi, m := range modes {
				if m == presim.ModeOoO {
					continue
				}
				b.ReportMetric(set.Speedup(0, 0, mi), metricName("speedup", m))
			}
			base, _ := set.Baseline(0, 0)
			b.ReportMetric(base.IPC, "baseline_IPC")
		})
	}
}

// BenchmarkFig3 reproduces Figure 3: per-benchmark energy savings of every
// mechanism relative to the baseline (positive = less energy).
func BenchmarkFig3(b *testing.B) {
	modes := presim.Modes()
	for _, w := range presim.Workloads() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var set *presim.ExperimentSet
			for i := 0; i < b.N; i++ {
				set = runCatalog(b, "figures", w.Name)
			}
			base, _ := set.Baseline(0, 0)
			for mi, m := range modes {
				if m == presim.ModeOoO {
					continue
				}
				b.ReportMetric(100*set.Result(0, 0, mi).Energy.SavingsVs(base.Energy),
					metricName("saving_pct", m))
			}
		})
	}
}

// BenchmarkE4RefillPenalty measures the flush-exit refill penalty of the
// discarding mechanisms (§2.4's ~56-cycle estimate).
func BenchmarkE4RefillPenalty(b *testing.B) {
	for _, name := range []string{"libquantum", "milc", "omnetpp"} {
		name := name
		b.Run(name, func(b *testing.B) {
			w, _ := presim.WorkloadByName(name)
			var r presim.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = presim.Run(w, presim.ModeRA, benchOpt())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.RefillPenaltyMean, "refill_cycles")
		})
	}
}

// BenchmarkE5ShortIntervals measures the fraction of runahead intervals
// below 20 cycles under PRE, which enters unconditionally (§2.4: 27%).
func BenchmarkE5ShortIntervals(b *testing.B) {
	for _, name := range []string{"libquantum", "mcf", "milc"} {
		name := name
		b.Run(name, func(b *testing.B) {
			w, _ := presim.WorkloadByName(name)
			var r presim.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = presim.Run(w, presim.ModePRE, benchOpt())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*r.IntervalFracBelow20, "short_interval_pct")
			b.ReportMetric(r.IntervalMean, "interval_cycles")
		})
	}
}

// BenchmarkE6FreeExit compares RA against the E6 ablation (snapshot exit,
// no window discard) — the paper's 14.5% -> 20.6% potential argument.
func BenchmarkE6FreeExit(b *testing.B) {
	for _, name := range []string{"libquantum", "milc", "omnetpp"} {
		name := name
		b.Run(name, func(b *testing.B) {
			var set *presim.ExperimentSet
			for i := 0; i < b.N; i++ {
				set = runCatalog(b, "e6_free_exit", name)
			}
			// Points flush-exit, free-exit; modes OoO, RA.
			b.ReportMetric(set.Speedup(0, 0, 1), "speedup_RA")
			b.ReportMetric(set.Speedup(1, 0, 1), "speedup_RA_free_exit")
		})
	}
}

// BenchmarkE7FreeResources measures the free-resource headroom at runahead
// entry (§3.4: 37% IQ, 51% int regs, 59% fp regs free).
func BenchmarkE7FreeResources(b *testing.B) {
	var iq, ints, fps float64
	ws := presim.Workloads()
	for i := 0; i < b.N; i++ {
		iq, ints, fps = 0, 0, 0
		for _, w := range ws {
			r, err := presim.Run(w, presim.ModePRE, benchOpt())
			if err != nil {
				b.Fatal(err)
			}
			iq += r.FreeIQFrac
			ints += r.FreeIntFrac
			fps += r.FreeFPFrac
		}
	}
	n := float64(len(ws))
	b.ReportMetric(100*iq/n, "IQ_free_pct")
	b.ReportMetric(100*ints/n, "int_free_pct")
	b.ReportMetric(100*fps/n, "fp_free_pct")
}

// BenchmarkE9InvocationRate measures how much more often PRE and PRE+EMQ
// invoke runahead than RA (§5.1: 1.62x and 1.95x).
func BenchmarkE9InvocationRate(b *testing.B) {
	ws := presim.Workloads()
	var preRatio, emqRatio float64
	for i := 0; i < b.N; i++ {
		var sumPre, sumEmq, n float64
		for _, w := range ws {
			ra, err := presim.Run(w, presim.ModeRA, benchOpt())
			if err != nil {
				b.Fatal(err)
			}
			if ra.Entries == 0 {
				continue
			}
			pre, err := presim.Run(w, presim.ModePRE, benchOpt())
			if err != nil {
				b.Fatal(err)
			}
			emq, err := presim.Run(w, presim.ModePREEMQ, benchOpt())
			if err != nil {
				b.Fatal(err)
			}
			sumPre += float64(pre.Entries) / float64(ra.Entries)
			sumEmq += float64(emq.Entries) / float64(ra.Entries)
			n++
		}
		preRatio, emqRatio = sumPre/n, sumEmq/n
	}
	b.ReportMetric(preRatio, "PRE_vs_RA_entries")
	b.ReportMetric(emqRatio, "PREEMQ_vs_RA_entries")
}

// runAblation runs a catalogue size sweep on milc (the OoO baseline is
// simulated once and shared across every size point) and reports the
// speedup at each size as metric_<size>.
func runAblation(b *testing.B, id, metric string) {
	var set *presim.ExperimentSet
	for i := 0; i < b.N; i++ {
		set = runCatalog(b, id, "milc")
	}
	for pi, size := range set.Plan().Points() {
		b.ReportMetric(set.Speedup(pi, 0, 0), metric+"_"+size)
	}
}

// BenchmarkAblationSSTSize sweeps the SST capacity (A1; paper: 256 entries
// hold the slices with almost no misses).
func BenchmarkAblationSSTSize(b *testing.B) { runAblation(b, "a1_sst", "speedup_PRE") }

// BenchmarkAblationEMQSize sweeps the EMQ capacity (A2; paper: 768 = 4x ROB).
func BenchmarkAblationEMQSize(b *testing.B) { runAblation(b, "a2_emq", "speedup_PREEMQ") }

// --- engineering micro-benchmarks -----------------------------------------

// BenchmarkSimThroughput measures raw simulation speed (µops simulated per
// second of host time) for the baseline and PRE.
func BenchmarkSimThroughput(b *testing.B) {
	for _, mode := range []presim.Mode{presim.ModeOoO, presim.ModePRE} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			w, _ := presim.WorkloadByName("milc")
			opt := sim.Options{WarmupUops: 5_000, MeasureUops: 50_000}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(w, mode, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(55_000*b.N)/b.Elapsed().Seconds(), "uops/s")
		})
	}
}

// BenchmarkCacheLookup measures the L1 tag-store hot path.
func BenchmarkCacheLookup(b *testing.B) {
	c := cache.New(cache.Config{Name: "B", SizeBytes: 32 << 10, Assoc: 8, HitLatency: 4, MSHRs: 10})
	for i := uint64(0); i < 512; i++ {
		c.Insert(i*64, 0, cache.SrcDemand)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64(i%512)*64, int64(i), true)
	}
}

// BenchmarkDRAMAccess measures the bank/row timing model.
func BenchmarkDRAMAccess(b *testing.B) {
	d := dram.New(dram.Default())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Access(uint64(i)*64, int64(i)*4, false)
	}
}

// BenchmarkSSTLookup measures the fully-associative SST hot path.
func BenchmarkSSTLookup(b *testing.B) {
	s := runahead.NewSST(256)
	for i := uint64(0); i < 256; i++ {
		s.Insert(0x400000 + i*4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Lookup(0x400000 + uint64(i%300)*4)
	}
}

// BenchmarkRename measures the rename stage hot path.
func BenchmarkRename(b *testing.B) {
	r := rename.New(rename.DefaultConfig())
	u := &uarch.Uop{PC: 4, Class: uarch.ClassIntAlu, Dst: uarch.IntReg(1), Src1: uarch.IntReg(2)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, ok := r.Rename(u, false)
		if !ok {
			b.Fatal("rename failed")
		}
		r.MarkReady(out.DstP)
		r.Commit(u.Dst, out.DstP)
	}
}

// BenchmarkWorkloadGen measures µop generation speed for every archetype.
func BenchmarkWorkloadGen(b *testing.B) {
	for _, name := range []string{"libquantum", "mcf", "lbm", "soplex"} {
		name := name
		b.Run(name, func(b *testing.B) {
			w, _ := workload.ByName(name)
			g := w.New()
			var u uarch.Uop
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Next(&u)
			}
		})
	}
}

// BenchmarkTraceWindow measures the sliding-window stream.
func BenchmarkTraceWindow(b *testing.B) {
	w, _ := workload.ByName("libquantum")
	s := trace.NewStream(w.New())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := int64(i)
		s.At(seq)
		if seq > 256 {
			s.Release(seq - 256)
		}
	}
}
