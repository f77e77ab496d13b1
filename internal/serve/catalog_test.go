package serve

import (
	"bytes"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/workload"
)

// windowed returns an entry's spec at a tiny window and, for a
// population, two scenarios.
func windowed(e Experiment) JobSpec {
	spec := e.Spec
	spec.WarmupUops, spec.MeasureUops = 500, 1_500
	if spec.Population != nil {
		spec.Population.Count = 2
	}
	return spec
}

// Every catalogue experiment writes the same results document whether it
// runs locally or on a server: the commands' local and -server paths
// differ only in where the spec runs.
func TestCatalogLocalMatchesServer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	env := newEnv(t, Config{SimWorkers: 2})
	for _, e := range Catalog() {
		spec := windowed(e)
		set, err := spec.Run(exp.RunOptions{Workers: 2})
		if err != nil {
			t.Fatalf("%s: local run: %v", e.ID, err)
		}
		var local bytes.Buffer
		if err := set.WriteJSON(&local); err != nil {
			t.Fatal(err)
		}
		st := env.submit(t, spec)
		env.streamEvents(t, st.ID)
		remote, code := env.result(t, st.ID)
		if code != http.StatusOK {
			t.Fatalf("%s: result: status %d: %s", e.ID, code, remote)
		}
		if !bytes.Equal(local.Bytes(), remote) {
			t.Errorf("%s: local and server results documents differ", e.ID)
		}
	}
}

func TestCatalogEntries(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Catalog() {
		if seen[e.ID] || e.Spec.Name != e.ID || e.Section == "" || e.Title == "" {
			t.Errorf("entry %+v: IDs must be unique and name their spec, and section and title are required", e)
		}
		seen[e.ID] = true
		got, err := CatalogEntry(e.ID)
		if err != nil || got.ID != e.ID {
			t.Errorf("CatalogEntry(%q) = %v, %v", e.ID, got.ID, err)
		}
	}
	if _, err := CatalogEntry("fig4"); err == nil {
		t.Error("CatalogEntry accepted an unknown ID")
	}
}

// E6's free-exit point changes only the RA cells: its OoO cells dedup
// onto the flush-exit baseline, so the matrix runs 3 configurations per
// workload, not 4.
func TestCatalogE6SharesBaseline(t *testing.T) {
	e, err := CatalogEntry("e6_free_exit")
	if err != nil {
		t.Fatal(err)
	}
	m, err := windowed(e).Matrix()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * len(workload.Suite()); plan.NumUnique() != want {
		t.Errorf("e6_free_exit unique runs = %d, want %d", plan.NumUnique(), want)
	}
}

// free_exit is an ablation of RA: in every other mode the knob leaves
// FreeExit false, so any mode list with the knob still validates.
func TestFreeExitKnobOnlyActsInRA(t *testing.T) {
	for _, mode := range core.Modes() {
		cfg := core.Default(mode)
		knobSetters["free_exit"](&cfg, 1)
		if cfg.FreeExit != (mode == core.ModeRA) {
			t.Errorf("%v: free_exit=1 set FreeExit = %v", mode, cfg.FreeExit)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v: free_exit=1 config invalid: %v", mode, err)
		}
		knobSetters["free_exit"](&cfg, 0)
		if cfg.FreeExit {
			t.Errorf("%v: free_exit=0 left FreeExit set", mode)
		}
	}
}
