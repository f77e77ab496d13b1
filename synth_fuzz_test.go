// Scenario-fuzz gate: the differential invariants the fixed-suite tests
// pin must hold over *sampled* workloads too. A date-pinned base seed
// keeps every CI run on the same population slice; the results artifact
// records each scenario's sampled parameters, so a failing seed is
// reproducible from the artifact alone (see TestScenarioFuzzArtifactReproduction).
package presim_test

import (
	"bytes"
	"encoding/json"
	"testing"

	presim "repro"
	"repro/internal/core"
	"repro/internal/exp"
)

// fuzzCount is the population size of the CI gate: large enough to hit
// several archetype mixes, small enough for a CI smoke.
const fuzzCount = 8

// fuzzOpt keeps windows CI-sized: hundreds of runahead episodes per
// scenario, seconds per test.
func fuzzOpt() presim.Options {
	opt := presim.DefaultOptions()
	opt.WarmupUops = 4_000
	opt.MeasureUops = 20_000
	return opt
}

// fuzzScenarios samples the date-pinned CI population.
func fuzzScenarios(t testing.TB) []presim.Workload {
	t.Helper()
	space := presim.DefaultSynthSpace()
	ws := make([]presim.Workload, 0, fuzzCount)
	for i := 0; i < fuzzCount; i++ {
		sc, err := space.Sample(presim.SynthNthSeed(presim.SynthDefaultBaseSeed, i))
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, sc.Workload())
	}
	return ws
}

// fuzzMatrix is the population matrix the worker-determinism and
// artifact-reproduction checks share. RA-buffer rides along because its
// replay engine interacts with sampled phase boundaries (a mid-episode
// phase switch kills the frozen chain) in ways the fixed suite never
// schedules.
func fuzzMatrix() presim.Experiment {
	return presim.Experiment{
		Name:  "scenario_fuzz",
		Modes: []presim.Mode{presim.ModeOoO, presim.ModeRABuffer, presim.ModePRE},
		Population: &presim.Population{
			Space: presim.DefaultSynthSpace(),
			Count: fuzzCount,
		},
		Options: fuzzOpt(),
	}
}

// TestScenarioFuzzCommittedInvariance extends the committed-state
// invariant to sampled scenarios: whatever archetype phases a seed draws,
// every mechanism must commit the same architectural µop count (up to the
// usual Width-1 commit bunching).
func TestScenarioFuzzCommittedInvariance(t *testing.T) {
	opt := fuzzOpt()
	width := int64(presim.DefaultConfig(presim.ModeOoO).Width)
	for _, w := range fuzzScenarios(t) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, mode := range presim.Modes() {
				r, err := presim.Run(w, mode, opt)
				if err != nil {
					t.Fatalf("%v: %v", mode, err)
				}
				if r.Committed < opt.MeasureUops || r.Committed >= opt.MeasureUops+width {
					t.Errorf("%v: committed %d µops, want [%d, %d) — runahead changed architectural state on a sampled scenario",
						mode, r.Committed, opt.MeasureUops, opt.MeasureUops+width)
				}
			}
		})
	}
}

// TestScenarioFuzzWorkerDeterminism extends the byte-identical results
// contract to population sweeps: the fuzz matrix must serialize
// identically at 1 and 4 workers.
func TestScenarioFuzzWorkerDeterminism(t *testing.T) {
	var reference []byte
	for _, workers := range []int{1, 4} {
		plan, err := fuzzMatrix().Expand()
		if err != nil {
			t.Fatal(err)
		}
		set, err := plan.Run(workers)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := set.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if reference == nil {
			reference = buf.Bytes()
			continue
		}
		if !bytes.Equal(reference, buf.Bytes()) {
			t.Fatalf("population results JSON differs between 1 and 4 workers")
		}
	}
}

// TestScenarioFuzzArtifactReproduction closes the reproducibility loop:
// take a results document, rebuild a scenario from ONLY its recorded
// synth parameters, re-simulate, and require the identical result — the
// property that makes a failing CI seed debuggable from the artifact.
func TestScenarioFuzzArtifactReproduction(t *testing.T) {
	plan, err := fuzzMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	set, err := plan.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := set.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc exp.Document
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != presim.ResultsSchemaVersion {
		t.Fatalf("artifact schema %d, want %d", doc.Schema, presim.ResultsSchemaVersion)
	}
	reproduced := 0
	for _, c := range doc.Cells {
		if c.Synth == nil {
			t.Fatalf("population cell %s/%s lacks synth params", c.Workload, c.Mode)
		}
		if c.Mode != presim.ModePRE.String() || reproduced >= 2 {
			continue // re-simulating every cell would double the test's cost
		}
		sc, err := presim.SynthFromParams(*c.Synth)
		if err != nil {
			t.Fatalf("cell %s: params do not rebuild: %v", c.Workload, err)
		}
		if sc.Name() != c.Workload {
			t.Errorf("rebuilt scenario name %q != cell workload %q", sc.Name(), c.Workload)
		}
		r, err := presim.Run(sc.Workload(), presim.ModePRE, fuzzOpt())
		if err != nil {
			t.Fatal(err)
		}
		if r.IPC != c.Result.IPC || r.Cycles != c.Result.Cycles {
			t.Errorf("%s: artifact-rebuilt run diverges: IPC %v vs %v, cycles %d vs %d",
				c.Workload, r.IPC, c.Result.IPC, r.Cycles, c.Result.Cycles)
		}
		reproduced++
	}
	if reproduced == 0 {
		t.Fatal("no PRE cells reproduced")
	}
}

// TestScenarioFuzzCycleSkipDifferential runs one sampled scenario under
// every mechanism with the cycle skipper forced off and requires
// byte-identical results JSON — the results-document-level counterpart of
// internal/core's TestCycleSkipLockstepSynth.
func TestScenarioFuzzCycleSkipDifferential(t *testing.T) {
	w := fuzzScenarios(t)[0]
	run := func(opt presim.Options) []byte {
		m := presim.Experiment{
			Name:      "fuzz_skip",
			Workloads: []presim.Workload{w},
			Modes:     presim.Modes(),
			Options:   opt,
		}
		plan, err := m.Expand()
		if err != nil {
			t.Fatal(err)
		}
		set, err := plan.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := set.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fast := run(fuzzOpt())
	slow := fuzzOpt()
	slow.DisableCycleSkip = true
	if !bytes.Equal(fast, run(slow)) {
		t.Fatal("sampled-scenario results JSON differs with cycle skipping on vs off")
	}
}

// frontEndScenarios samples the date-pinned front-end-bound population —
// codewalk-heavy instruction footprints, the first scenarios where the
// PF axis touches the L1I.
func frontEndScenarios(t testing.TB, n int) []presim.Workload {
	t.Helper()
	space := presim.FrontEndSynthSpace()
	ws := make([]presim.Workload, 0, n)
	for i := 0; i < n; i++ {
		sc, err := space.Sample(presim.SynthNthSeed(presim.SynthDefaultBaseSeed, i))
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, sc.Workload())
	}
	return ws
}

// adaptiveVariants are the adaptive-layer grid points the fuzz gate runs
// in addition to the open-loop pair the older tests cover.
var adaptiveVariants = []string{"l1i-nl", "throttled", "filtered", "adaptive"}

// TestScenarioFuzzPFVariantsCommittedInvariance extends the
// equal-committed-µops invariant matrix to the adaptive prefetching
// layer: on sampled scenarios from both the default and the
// front-end-bound populations, every mechanism crossed with the
// throttled / L1I / filtered / adaptive variants must commit the same
// architectural µop count — degree feedback, fetch-stream prefetching
// and the PRE-aware filter only move cycles, never committed state.
func TestScenarioFuzzPFVariantsCommittedInvariance(t *testing.T) {
	opt := fuzzOpt()
	width := int64(presim.DefaultConfig(presim.ModeOoO).Width)
	// Scenario names encode only the seed, and both populations draw the
	// same NthSeed sequence — prefix the subtests with the space so a
	// failing seed names the population that produced it.
	type popScenario struct {
		space string
		w     presim.Workload
	}
	var ws []popScenario
	for _, w := range fuzzScenarios(t)[:2] {
		ws = append(ws, popScenario{"default", w})
	}
	for _, w := range frontEndScenarios(t, 2) {
		ws = append(ws, popScenario{"frontend", w})
	}
	for _, ps := range ws {
		w := ps.w
		t.Run(ps.space+"/"+w.Name, func(t *testing.T) {
			t.Parallel()
			for _, mode := range []presim.Mode{presim.ModeOoO, presim.ModePRE} {
				for _, name := range adaptiveVariants {
					v, err := presim.PrefetchVariantByName(name)
					if err != nil {
						t.Fatal(err)
					}
					o := opt
					o.Configure = func(c *core.Config) { c.ApplyPrefetch(v) }
					r, err := presim.Run(w, mode, o)
					if err != nil {
						t.Fatalf("%v+%s: %v", mode, name, err)
					}
					if r.Committed < opt.MeasureUops || r.Committed >= opt.MeasureUops+width {
						t.Errorf("%v+%s: committed %d µops, want [%d, %d) — adaptive prefetching changed architectural state",
							mode, name, r.Committed, opt.MeasureUops, opt.MeasureUops+width)
					}
				}
			}
		})
	}
}

// TestScenarioFuzzFrontEndCycleSkipDifferential pins the byte-identical
// cycle-skip contract on the new machinery all at once: a sampled
// front-end-bound scenario under the full throttled+L1I+filtered variant
// must serialize identically with the skipper forced off.
func TestScenarioFuzzFrontEndCycleSkipDifferential(t *testing.T) {
	w := frontEndScenarios(t, 1)[0]
	adaptive, err := presim.PrefetchVariantByName("adaptive")
	if err != nil {
		t.Fatal(err)
	}
	run := func(opt presim.Options) []byte {
		m := presim.Experiment{
			Name:      "fuzz_frontend_skip",
			Workloads: []presim.Workload{w},
			Modes:     []presim.Mode{presim.ModeOoO, presim.ModePRE},
			Points: []presim.ExperimentPoint{{Name: "adaptive", Apply: func(c *core.Config) {
				c.ApplyPrefetch(adaptive)
			}}},
			Options: opt,
		}
		plan, err := m.Expand()
		if err != nil {
			t.Fatal(err)
		}
		set, err := plan.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := set.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fast := run(fuzzOpt())
	slow := fuzzOpt()
	slow.DisableCycleSkip = true
	if !bytes.Equal(fast, run(slow)) {
		t.Fatal("front-end-bound adaptive-PF results JSON differs with cycle skipping on vs off")
	}
}
