package presim_test

import (
	"reflect"
	"testing"

	presim "repro"
)

func quick() presim.Options {
	opt := presim.DefaultOptions()
	opt.WarmupUops = 5_000
	opt.MeasureUops = 30_000
	return opt
}

func TestFacadeRun(t *testing.T) {
	w, err := presim.WorkloadByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	base, err := presim.Run(w, presim.ModeOoO, quick())
	if err != nil {
		t.Fatal(err)
	}
	pre, err := presim.Run(w, presim.ModePRE, quick())
	if err != nil {
		t.Fatal(err)
	}
	if pre.Speedup(base) <= 1.0 {
		t.Errorf("PRE speedup %.3f on libquantum must exceed 1", pre.Speedup(base))
	}
}

func TestFacadeModesAndNames(t *testing.T) {
	if len(presim.Modes()) != 5 {
		t.Error("expected 5 modes")
	}
	if len(presim.WorkloadNames()) != 13 {
		t.Error("expected 13 workloads")
	}
	m, err := presim.ParseMode("PRE")
	if err != nil || m != presim.ModePRE {
		t.Error("ParseMode failed")
	}
}

func TestFacadeCustomWorkload(t *testing.T) {
	w := presim.CustomWorkload("mychase", func() presim.Generator {
		return presim.NewPtrChase(presim.PtrChaseParams{
			KernelID: 77, Chains: 2, FootprintLines: 1 << 14,
			ALUWork: 8, HotLoads: 2,
		})
	})
	r, err := presim.Run(w, presim.ModePRE, quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload != "mychase" || r.Committed < 30_000 {
		t.Errorf("custom workload run incomplete: %+v", r.Committed)
	}
}

func TestFacadeTables(t *testing.T) {
	ws := []presim.Workload{}
	for _, n := range []string{"libquantum", "milc"} {
		w, _ := presim.WorkloadByName(n)
		ws = append(ws, w)
	}
	modes := presim.Modes()
	res, err := presim.RunMatrix(ws, modes, quick())
	if err != nil {
		t.Fatal(err)
	}
	if presim.Fig2Table(res, modes) == nil || presim.Fig3Table(res, modes) == nil {
		t.Fatal("tables must render")
	}
	sp := presim.AverageSpeedups(res, modes)
	if sp[0] != 1.0 {
		t.Errorf("baseline speedup %v", sp[0])
	}
	if len(presim.AverageEnergySavings(res, modes)) != len(modes) {
		t.Error("savings length mismatch")
	}
}

// RunMatrix runs through the experiment orchestrator. Every cell must sit
// at its [workload][mode] slot and equal a standalone Run of the same
// pair: neither the worker pool nor dedup may perturb a result.
func TestRunMatrixShapeAndParallelism(t *testing.T) {
	ws := []presim.Workload{}
	for _, n := range []string{"libquantum", "milc"} {
		w, _ := presim.WorkloadByName(n)
		ws = append(ws, w)
	}
	modes := []presim.Mode{presim.ModeOoO, presim.ModePRE}
	res, err := presim.RunMatrix(ws, modes, quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(ws) {
		t.Fatalf("matrix has %d rows, want %d", len(res), len(ws))
	}
	for wi, w := range ws {
		if len(res[wi]) != len(modes) {
			t.Fatalf("row %d has %d cells, want %d", wi, len(res[wi]), len(modes))
		}
		for mi, m := range modes {
			got := res[wi][mi]
			if got.Workload != w.Name || got.Mode != m {
				t.Errorf("cell [%d][%d] holds %s/%v, want %s/%v", wi, mi, got.Workload, got.Mode, w.Name, m)
			}
			want, err := presim.Run(w, m, quick())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("cell %s/%v differs from a standalone run:\n got %+v\nwant %+v", w.Name, m, got, want)
			}
		}
	}
}
