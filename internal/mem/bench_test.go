package mem

import (
	"testing"

	"repro/internal/prefetch"
	"repro/internal/workload"
)

// BenchmarkHierarchyLoadPC times the demand-load path — LoadPC with its
// prefetch training, the PRE-aware filter probes and the request drain —
// on the milc proxy's load stream, cycled. nopf runs the bare hierarchy;
// adaptive runs the full adaptive grid point (throttled L1I next-line,
// L1D stride and L2 best-offset engines plus the filter). Loads issue one
// per cycle, and a load that finds the MSHRs exhausted retries at the
// next MSHR release. It reports ns/load and must report 0 allocs/op.
//
//	go test -run '^$' -bench HierarchyLoadPC -benchmem ./internal/mem
func BenchmarkHierarchyLoadPC(b *testing.B) {
	w, err := workload.ByName("milc")
	if err != nil {
		b.Fatal(err)
	}
	type load struct{ addr, pc uint64 }
	var loads []load
	for _, u := range workload.Drain(w.New(), 200_000) {
		if u.IsLoad() {
			loads = append(loads, load{u.Addr, u.PC})
		}
	}
	adaptive, err := prefetch.VariantByName("adaptive")
	if err != nil {
		b.Fatal(err)
	}
	for _, pt := range []struct {
		name    string
		variant *prefetch.Variant
	}{{"nopf", nil}, {"adaptive", &adaptive}} {
		b.Run(pt.name, func(b *testing.B) {
			cfg := Default()
			if v := pt.variant; v != nil {
				cfg.L1IPrefetch, cfg.L1DPrefetch, cfg.L2Prefetch = v.L1I, v.L1D, v.L2
				cfg.RunaheadFilter = v.Filter
			}
			h := New(cfg)
			var now int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := loads[i%len(loads)]
				for {
					if _, ok := h.LoadPC(l.addr, l.pc, now); ok {
						break
					}
					next, ok := h.NextMSHRRelease(now)
					if !ok || next <= now {
						next = now + 1
					}
					now = next
				}
				now++
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/load")
		})
	}
}
