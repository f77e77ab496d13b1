// Hot-path performance contracts: event-driven cycle skipping must be
// invisible in the results (byte-identical JSON with the skipper forced
// off), and a warmed-up core must simulate without per-cycle heap
// allocation. These ride the same determinism philosophy as the
// differential tests in differential_test.go: whatever the engine does
// for speed, the reported numbers may not move.
package presim_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	presim "repro"
	"repro/internal/core"
	"repro/internal/workload"
)

// skipDiffMatrix is the full differential matrix: every mechanism over
// one representative per archetype, crossed with every hardware-prefetch
// variant of the catalogue's PF grid. The whole PF axis matters: the L2
// best-offset engine trains on traffic that can then be rejected at the
// L2/L3 MSHRs, which is exactly the path where naive retry amortization
// would silently skip training (the bug class this test exists to
// catch). It stays an Experiment rather than a job spec because the
// representatives include a custom pointer chase.
func skipDiffMatrix(t *testing.T, opt presim.Options) presim.Experiment {
	t.Helper()
	e, err := presim.CatalogEntry("pf_grid")
	if err != nil {
		t.Fatal(err)
	}
	e.Spec.WarmupUops, e.Spec.MeasureUops = opt.WarmupUops, opt.MeasureUops
	grid, err := e.Spec.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	return presim.Experiment{
		Name:      "skip_diff",
		Workloads: archetypeRepresentatives(),
		Modes:     presim.Modes(),
		Points:    grid.Points,
		Options:   opt,
	}
}

// runMatrixJSON expands and runs the matrix, returning the results JSON.
func runMatrixJSON(t *testing.T, opt presim.Options) []byte {
	t.Helper()
	plan, err := skipDiffMatrix(t, opt).Expand()
	if err != nil {
		t.Fatal(err)
	}
	set, err := plan.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := set.WriteFile(dir, "skip_diff"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "skip_diff.json"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCycleSkipDifferential pins the tentpole contract of the event-driven
// engine: a full matrix run with cycle skipping force-disabled produces
// byte-identical results JSON. Wall-clock is the only thing the skipper
// may change. (internal/core's TestCycleSkipLockstep checks the same
// property cycle-by-cycle against every internal statistic; this test
// covers the whole reporting pipeline at the results-document level.)
func TestCycleSkipDifferential(t *testing.T) {
	opt := presim.DefaultOptions()
	opt.WarmupUops = 5_000
	opt.MeasureUops = 25_000

	fast := runMatrixJSON(t, opt)

	slow := opt
	slow.DisableCycleSkip = true
	ref := runMatrixJSON(t, slow)

	if !bytes.Equal(fast, ref) {
		t.Fatalf("results JSON differs with cycle skipping on vs off (%d vs %d bytes): the skipper changed reported numbers",
			len(fast), len(ref))
	}
}

// TestSteadyStateAllocs is the zero-allocation guard: once warmed up (all
// ring buffers, pools, checkpoint buffers and waiter lists at their
// high-water marks), a measurement window must not allocate. RA-buffer's
// trace ring is pre-sized from ReplayLookahead at construction
// (trace.NewStreamSized), so even its deep replay scans stay within the
// ring and every mode holds the zero bound.
func TestSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow under -short")
	}
	for _, tc := range []struct {
		wl      string
		mode    presim.Mode
		allowed float64
	}{
		{"milc", presim.ModeOoO, 0},
		{"milc", presim.ModeRA, 0},
		{"milc", presim.ModeRABuffer, 0},
		{"milc", presim.ModePRE, 0},
		{"milc", presim.ModePREEMQ, 0},
		{"libquantum", presim.ModePRE, 0},
		{"omnetpp", presim.ModePREEMQ, 0},
	} {
		tc := tc
		t.Run(tc.wl+"/"+tc.mode.String(), func(t *testing.T) {
			w, err := workload.ByName(tc.wl)
			if err != nil {
				t.Fatal(err)
			}
			c, err := core.New(core.Default(tc.mode), w.New())
			if err != nil {
				t.Fatal(err)
			}
			c.Run(150_000) // warm caches, SST, pools and ring high-waters
			allocs := testing.AllocsPerRun(5, func() { c.Run(20_000) })
			if allocs > tc.allowed {
				t.Errorf("%.1f allocations per 20k-µop window (want <= %.0f): the hot path regressed",
					allocs, tc.allowed)
			}
		})
	}
}
