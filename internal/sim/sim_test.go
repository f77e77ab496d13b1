package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func quickOpt() Options {
	return Options{WarmupUops: 5_000, MeasureUops: 30_000}
}

func TestRunProducesSaneResult(t *testing.T) {
	w, _ := workload.ByName("libquantum")
	r, err := Run(w, core.ModeOoO, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed < 30_000 || r.Committed > 30_003 {
		t.Errorf("committed = %d, want ~30000", r.Committed)
	}
	if r.IPC <= 0 || r.IPC > 4 {
		t.Errorf("IPC = %v implausible", r.IPC)
	}
	if r.L3MPKI <= 0 {
		t.Error("memory-bound proxy must miss the LLC")
	}
	if r.Energy.Total() <= 0 {
		t.Error("energy must be positive")
	}
	if r.Entries != 0 {
		t.Error("OoO must not enter runahead")
	}
}

func TestRunRejectsEmptyWindow(t *testing.T) {
	w, _ := workload.ByName("libquantum")
	for _, opt := range []Options{{}, {WarmupUops: -7, MeasureUops: 1_000}} {
		if _, err := Run(w, core.ModeOoO, opt); err == nil {
			t.Errorf("window %d+%d accepted", opt.WarmupUops, opt.MeasureUops)
		}
	}
}

func TestRunConfigureHook(t *testing.T) {
	w, _ := workload.ByName("libquantum")
	opt := quickOpt()
	opt.Configure = func(c *core.Config) { c.SSTSize = 16 }
	r, err := Run(w, core.ModePRE, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode != core.ModePRE {
		t.Error("mode not recorded")
	}
}

func TestRunConfigureInvalid(t *testing.T) {
	w, _ := workload.ByName("libquantum")
	opt := quickOpt()
	opt.Configure = func(c *core.Config) { c.Width = 0 }
	if _, err := Run(w, core.ModePRE, opt); err == nil {
		t.Fatal("invalid configuration accepted")
	}
}

func TestSpeedup(t *testing.T) {
	base := Result{IPC: 1.0}
	faster := Result{IPC: 1.5}
	if s := faster.Speedup(base); s != 1.5 {
		t.Errorf("speedup = %v", s)
	}
}

func TestDeterministicResults(t *testing.T) {
	w, _ := workload.ByName("milc")
	a, err := Run(w, core.ModePRE, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(w, core.ModePRE, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Entries != b.Entries || a.Energy.Total() != b.Energy.Total() {
		t.Errorf("nondeterministic results: %+v vs %+v", a.Cycles, b.Cycles)
	}
}

func TestRunaheadModesCollectRunaheadStats(t *testing.T) {
	w, _ := workload.ByName("libquantum")
	r, err := Run(w, core.ModePRE, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if r.Entries == 0 || r.Prefetches == 0 {
		t.Error("PRE run must show runahead activity")
	}
	if r.FreeIQFrac <= 0 || r.FreeIQFrac >= 1 {
		t.Errorf("free IQ fraction %v implausible", r.FreeIQFrac)
	}
	if r.IntervalMean <= 0 {
		t.Error("interval mean missing")
	}
}
