// Golden-stats regression test: pins the quickstart example's headline
// numbers so perf-affecting refactors fail loudly instead of silently
// drifting from the paper's reproduced measurements. The simulator is
// fully deterministic, so these values are exact — any change means the
// modeled microarchitecture changed.
//
// After an INTENDED model change, regenerate with:
//
//	go test -run TestGoldenQuickstartStats -update
//
// and justify the new numbers in the commit message.
package presim_test

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	presim "repro"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

const goldenPath = "testdata/quickstart_golden.json"

// goldenStats mirrors the quickstart example's scenario: libquantum under
// OoO and PRE with a 200k-µop window.
type goldenStats struct {
	Schema      int    `json:"schema"`
	Workload    string `json:"workload"`
	WarmupUops  int64  `json:"warmup_uops"`
	MeasureUops int64  `json:"measure_uops"`

	BaseIPC    float64 `json:"base_ipc"`
	BaseL3MPKI float64 `json:"base_l3_mpki"`

	PREIPC        float64 `json:"pre_ipc"`
	PREL3MPKI     float64 `json:"pre_l3_mpki"`
	PREEntries    int64   `json:"pre_runahead_entries"`
	PREPrefetches int64   `json:"pre_prefetches"`
}

func measureGolden(t *testing.T) goldenStats {
	t.Helper()
	w, err := presim.WorkloadByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	opt := presim.DefaultOptions()
	opt.MeasureUops = 200_000
	base, err := presim.Run(w, presim.ModeOoO, opt)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := presim.Run(w, presim.ModePRE, opt)
	if err != nil {
		t.Fatal(err)
	}
	return goldenStats{
		Schema:      1,
		Workload:    w.Name,
		WarmupUops:  opt.WarmupUops,
		MeasureUops: opt.MeasureUops,

		BaseIPC:    base.IPC,
		BaseL3MPKI: base.L3MPKI,

		PREIPC:        pre.IPC,
		PREL3MPKI:     pre.L3MPKI,
		PREEntries:    pre.Entries,
		PREPrefetches: pre.Prefetches,
	}
}

func TestGoldenQuickstartStats(t *testing.T) {
	got := measureGolden(t)

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		b = append(b, '\n')
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, b, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %+v", got)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want goldenStats
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if want.Schema != got.Schema {
		t.Fatalf("golden schema %d, test expects %d", want.Schema, got.Schema)
	}

	// The simulator is deterministic; floats are compared with a relative
	// epsilon only to absorb math-library differences across platforms,
	// not model drift.
	const eps = 1e-9
	closeTo := func(a, b float64) bool {
		return math.Abs(a-b) <= eps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	}
	checkF := func(name string, gotV, wantV float64) {
		if !closeTo(gotV, wantV) {
			t.Errorf("%s drifted: got %v, golden %v (intended? re-pin with -update)", name, gotV, wantV)
		}
	}
	checkI := func(name string, gotV, wantV int64) {
		if gotV != wantV {
			t.Errorf("%s drifted: got %d, golden %d (intended? re-pin with -update)", name, gotV, wantV)
		}
	}
	checkF("baseline IPC", got.BaseIPC, want.BaseIPC)
	checkF("baseline L3 MPKI", got.BaseL3MPKI, want.BaseL3MPKI)
	checkF("PRE IPC", got.PREIPC, want.PREIPC)
	checkF("PRE L3 MPKI", got.PREL3MPKI, want.PREL3MPKI)
	checkI("PRE runahead entries", got.PREEntries, want.PREEntries)
	checkI("PRE prefetches", got.PREPrefetches, want.PREPrefetches)
}
