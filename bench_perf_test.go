// Hot-path engineering benchmarks: the per-mode simulation cost in
// ns per committed µop (BenchmarkStep_*) and the quickstart scenario as
// one timed unit (BenchmarkQuickstartSweep). These are the quantities
// recorded in the BENCH_*.json trajectory:
//
//	go test -bench 'BenchmarkStep_|QuickstartSweep' -benchmem
//
// All of them run with b.ReportAllocs, so an allocation regression on the
// hot path shows up here as well as in TestSteadyStateAllocs.
package presim_test

import (
	"testing"

	presim "repro"
	"repro/internal/core"
	"repro/internal/workload"
)

// benchStep measures a warmed-up core's marginal simulation cost on a
// memory-bound workload: ns and allocations per committed µop, plus the
// fraction of simulated cycles the event-driven engine skipped.
func benchStep(b *testing.B, mode presim.Mode) {
	w, err := workload.ByName("milc")
	if err != nil {
		b.Fatal(err)
	}
	c, err := core.New(core.Default(mode), w.New())
	if err != nil {
		b.Fatal(err)
	}
	c.Run(100_000) // steady state: caches, SST and buffers warmed
	const window = 20_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(window)
	}
	b.StopTimer()
	uops := float64(window) * float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/uops, "ns/uop")
	s := c.Stats()
	b.ReportMetric(100*float64(s.SkippedAhead)/float64(s.Cycles), "skipped_cycle_pct")
}

func BenchmarkStep_OoO(b *testing.B)      { benchStep(b, presim.ModeOoO) }
func BenchmarkStep_RA(b *testing.B)       { benchStep(b, presim.ModeRA) }
func BenchmarkStep_RABuffer(b *testing.B) { benchStep(b, presim.ModeRABuffer) }
func BenchmarkStep_PRE(b *testing.B)      { benchStep(b, presim.ModePRE) }
func BenchmarkStep_PREEMQ(b *testing.B)   { benchStep(b, presim.ModePREEMQ) }

// BenchmarkQuickstartSweep times the quickstart scenario end to end —
// libquantum under OoO and PRE with the golden 200k-µop window, fresh
// machines each iteration — the wall-clock number BENCH_*.json tracks.
func BenchmarkQuickstartSweep(b *testing.B) {
	w, err := presim.WorkloadByName("libquantum")
	if err != nil {
		b.Fatal(err)
	}
	opt := presim.DefaultOptions()
	opt.MeasureUops = 200_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := presim.Run(w, presim.ModeOoO, opt); err != nil {
			b.Fatal(err)
		}
		if _, err := presim.Run(w, presim.ModePRE, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	uops := 2 * float64(opt.WarmupUops+opt.MeasureUops) * float64(b.N)
	b.ReportMetric(uops/b.Elapsed().Seconds(), "uops/s")
}

// BenchmarkMemoryBoundSweep times OoO + PRE across the memory-bound
// archetype representatives with quickstart-sized windows — the broader
// trajectory point for the speedup-vs-baseline comparison.
func BenchmarkMemoryBoundSweep(b *testing.B) {
	opt := presim.DefaultOptions()
	opt.MeasureUops = 200_000
	names := []string{"libquantum", "mcf", "milc", "lbm", "omnetpp"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range names {
			w, err := presim.WorkloadByName(name)
			if err != nil {
				b.Fatal(err)
			}
			for _, mode := range []presim.Mode{presim.ModeOoO, presim.ModePRE} {
				if _, err := presim.Run(w, mode, opt); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.StopTimer()
	uops := float64(len(names)) * 2 * float64(opt.WarmupUops+opt.MeasureUops) * float64(b.N)
	b.ReportMetric(uops/b.Elapsed().Seconds(), "uops/s")
}
