package exp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload/synth"
)

// goldenKeys pin the CellKey stability contract: String/Hash are cache
// identities and Seed is serialized into the byte-identical results
// JSON, so a silent change to any of them either poisons every persisted
// cache entry or breaks the golden results. If this test fails because
// you changed what a key covers ON PURPOSE (new core.Config field,
// canonicalConfig table edit, layout change), bump KeyVersion, update
// the pinned hashes here, and note the bump in the PR — cached results
// from older versions are then correctly treated as misses. The seeds
// must NEVER change: they are part of the results-JSON byte contract
// (CellKey.seedKey is frozen independently of String).
func goldenKeyCases(t *testing.T) []struct {
	name string
	key  CellKey
} {
	t.Helper()
	opt := sim.Options{WarmupUops: 50_000, MeasureUops: 300_000}
	preCfg := core.Default(core.ModePRE)
	preCfg.SSTSize = 128
	sc, err := synth.DefaultSpace().Sample(synth.NthSeed(synth.DefaultBaseSeed, 0))
	if err != nil {
		t.Fatalf("sampling default-space scenario 0: %v", err)
	}
	params := sc.Params
	return []struct {
		name string
		key  CellKey
	}{
		{"fixed/ooo", CellKeyFor("libquantum", nil, opt, core.Default(core.ModeOoO))},
		{"fixed/pre", CellKeyFor("mcf", nil, opt, preCfg)},
		{"synth/ra", CellKeyFor(sc.Name(), &params, opt, core.Default(core.ModeRA))},
	}
}

func TestCellKeyGoldenHashes(t *testing.T) {
	want := map[string]struct{ hash, seed string }{
		"fixed/ooo": {"bbabbb953f495aeb1cfe3786afb4aa7ff9a61a6615789268e00d72fde2cb829d", "097abf951bd06fb1"},
		"fixed/pre": {"1d898373ec413518164fcfae1bc61f16f42a1c0583f32cde27384f00f82c85ce", "fa05a489a2371bd5"},
		"synth/ra":  {"7e3d9013a22ea0110b5ef4b49f4d6271fcd2e6a41bd57ae15a5dbcfb2d979775", "5db03120e06adac6"},
	}
	for _, c := range goldenKeyCases(t) {
		name, k := c.name, c.key
		if got := k.Hash(); got != want[name].hash {
			t.Errorf("%s: Hash() = %s, golden %s\nkey string: %s\n(cache identity changed — if intentional, bump exp.KeyVersion and repin)",
				name, got, want[name].hash, k.String())
		}
		if got := fmt.Sprintf("%016x", k.Seed()); got != want[name].seed {
			t.Errorf("%s: Seed() = %s, golden %s — seeds are serialized in results JSON and must never change",
				name, got, want[name].seed)
		}
	}
}

// The renderings CellKeyFor memoizes must be the bytes a key without the
// memo renders, so a hand-built key and a built one agree on String, Hash
// and Seed.
func TestCellKeyMemoMatchesRendering(t *testing.T) {
	for _, c := range goldenKeyCases(t) {
		k := c.key
		if k.seedStr == "" || k.str == "" || k.hash == "" {
			t.Fatalf("%s: CellKeyFor left the memo unset", c.name)
		}
		bare := k
		bare.seedStr, bare.str, bare.hash = "", "", ""
		if k.String() != bare.String() {
			t.Errorf("%s: memoized String %q, rendered %q", c.name, k.String(), bare.String())
		}
		if k.Hash() != bare.Hash() {
			t.Errorf("%s: memoized Hash %s, rendered %s", c.name, k.Hash(), bare.Hash())
		}
		if k.Seed() != bare.Seed() {
			t.Errorf("%s: memoized Seed %016x, rendered %016x", c.name, k.Seed(), bare.Seed())
		}
	}
}

// The key string must carry its own version and the schema version, so a
// persistent store can never alias entries across either.
func TestCellKeyStringIsVersioned(t *testing.T) {
	for _, c := range goldenKeyCases(t) {
		name, k := c.name, c.key
		prefix := fmt.Sprintf("cellkey/v%d|schema=%d|", KeyVersion, SchemaVersion)
		if !strings.HasPrefix(k.String(), prefix) {
			t.Errorf("%s: String() %q lacks version prefix %q", name, k.String(), prefix)
		}
	}
}

// Synth parameters must be part of the cache identity: two spaces can
// sample the same seed, giving two scenarios with the same NAME but
// different generators. The in-matrix dedup never sees this (duplicate
// workload names are rejected), but a cross-job cache would.
func TestCellKeyDistinguishesSynthParams(t *testing.T) {
	opt := sim.Options{WarmupUops: 5_000, MeasureUops: 20_000}
	seed := synth.NthSeed(synth.DefaultBaseSeed, 1)
	a, err := synth.DefaultSpace().Sample(seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := synth.FrontEndSpace().Sample(seed)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != b.Name() {
		t.Fatalf("same seed should give same scenario name, got %q vs %q", a.Name(), b.Name())
	}
	pa, pb := a.Params, b.Params
	cfg := core.Default(core.ModeOoO)
	ka := CellKeyFor(a.Name(), &pa, opt, cfg)
	kb := CellKeyFor(b.Name(), &pb, opt, cfg)
	if ka.String() == kb.String() || ka.Hash() == kb.Hash() {
		t.Errorf("scenarios from different spaces share a cache key: %s", ka.Hash())
	}
	// The seed derivation deliberately ignores synth params (it predates
	// them and is frozen), so the per-run seeds still match — the cache
	// key is strictly finer than the seed key.
	if ka.Seed() != kb.Seed() {
		t.Errorf("seed derivation must not depend on synth params (frozen contract)")
	}
}

// Expand's dedup and seeding must agree with the exported key type: every
// unique run's Plan.Key reproduces Plan.Seed, and keys are unique.
func TestExpandKeysConsistent(t *testing.T) {
	m := Matrix{
		Name:      "keys",
		Workloads: testWorkloads(t),
		Modes:     []core.Mode{core.ModeOoO, core.ModePRE},
		Options:   testOpt(),
	}
	plan, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for ui := 0; ui < plan.NumUnique(); ui++ {
		k := plan.Key(ui)
		if k.str == "" || k.hash == "" || k.seedStr == "" {
			t.Errorf("unique %d: Plan.Key lacks the rendering memo", ui)
		}
		if k.Seed() != plan.Seed(ui) {
			t.Errorf("unique %d: Key().Seed() %016x != Plan.Seed %016x", ui, k.Seed(), plan.Seed(ui))
		}
		if seen[k.Hash()] {
			t.Errorf("unique %d: duplicate key hash %s", ui, k.Hash())
		}
		seen[k.Hash()] = true
	}
}

// A Lookup that hits on every key must substitute for simulation: the
// run completes without ever calling sim.Run (the fake results come
// back verbatim), Store never fires, progress events carry Cached, and
// the meta aggregates stay finite (no divide-by-zero on the ~zero
// wall-clock, zero-effective-worker edge the cache exposes).
func TestRunOptsLookupSubstitutesSimulation(t *testing.T) {
	m := Matrix{
		Name:      "cached",
		Workloads: testWorkloads(t)[:1],
		Modes:     []core.Mode{core.ModeOoO, core.ModePRE},
		Options:   testOpt(),
	}
	plan, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var stores atomic.Int64
	var cachedEvents atomic.Int64
	fake := func(k CellKey) sim.Result {
		return sim.Result{Workload: k.Workload, Mode: k.Config.Mode, IPC: 1.5, Cycles: 42}
	}
	set, err := plan.RunOpts(RunOptions{
		Workers: 2,
		Lookup:  func(k CellKey) (sim.Result, bool) { return fake(k), true },
		Store:   func(CellKey, sim.Result) { stores.Add(1) },
		Progress: func(ev ProgressEvent) {
			if ev.Cached {
				cachedEvents.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stores.Load() != 0 {
		t.Errorf("Store fired %d times on an all-hit run", stores.Load())
	}
	if got, want := int(cachedEvents.Load()), plan.NumUnique(); got != want {
		t.Errorf("cached progress events = %d, want %d", got, want)
	}
	meta := set.Meta()
	if meta.CacheHits != plan.NumUnique() {
		t.Errorf("meta.CacheHits = %d, want %d", meta.CacheHits, plan.NumUnique())
	}
	for _, mv := range []struct {
		name string
		v    float64
	}{
		{"worker_utilization", meta.WorkerUtilization},
		{"cell_seconds_median", meta.CellSecondsMedian},
	} {
		if math.IsNaN(mv.v) || math.IsInf(mv.v, 0) {
			t.Errorf("meta.%s = %v on an all-cached run; must stay finite", mv.name, mv.v)
		}
	}
	if r := set.Result(0, 0, 0); r.Cycles != 42 {
		t.Errorf("cached result not substituted: %+v", r)
	}
}

// Zero-length run lists must not divide by zero anywhere in the meta
// aggregation (median indexing, worker utilization). A zero-cell plan
// cannot come out of Expand today, but the serve layer's cache seam gets
// arbitrarily close (every cell a ~0s hit), so the math is pinned here
// against the literal empty plan.
func TestRunOptsZeroCellPlanMeta(t *testing.T) {
	p := &Plan{m: Matrix{Name: "empty", Options: testOpt()}}
	set, err := p.RunOpts(RunOptions{Workers: 4})
	if err != nil {
		t.Fatalf("zero-cell run: %v", err)
	}
	meta := set.Meta()
	if meta.EffectiveWorkers != 0 || meta.UniqueRuns != 0 {
		t.Errorf("zero-cell meta inconsistent: %+v", meta)
	}
	if math.IsNaN(meta.WorkerUtilization) || math.IsInf(meta.WorkerUtilization, 0) {
		t.Errorf("worker_utilization = %v for a zero-cell plan; want 0", meta.WorkerUtilization)
	}
}

// A cancelled context must surface as one clean wrapped error from
// RunOpts — promptly, not after simulating the rest of the plan, and
// never as a hang.
func TestRunOptsContextCancellation(t *testing.T) {
	m := Matrix{
		Name:      "cancel",
		Workloads: testWorkloads(t),
		Modes:     core.Modes(),
		Options:   testOpt(),
	}
	plan, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}

	// Already-cancelled context: nothing simulates, the error is clean.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now() //sim:wallclock cancellation-latency bound for the test only
	if _, err := plan.RunOpts(RunOptions{Workers: 2, Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: err = %v, want context.Canceled", err)
	}
	//sim:wallclock cancellation-latency bound for the test only
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("pre-cancelled run took %v; should return almost immediately", elapsed)
	}

	// Mid-run cancellation via the progress hook: the first completed
	// cell cancels; queued cells are skipped.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	_, err = plan.RunOpts(RunOptions{
		Workers:  1,
		Context:  ctx2,
		Progress: func(ProgressEvent) { cancel2() },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: err = %v, want context.Canceled", err)
	}
}
