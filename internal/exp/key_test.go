package exp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload/synth"
)

// goldenKeyCases pin the CellKey stability contract: String/Hash are
// cache identities, so a silent change to either poisons every persisted
// cache entry. If TestCellKeyGoldenHashes fails because you changed what
// a key covers ON PURPOSE (canonicalConfig table edit, layout change, a
// new config field with a non-zero default), bump KeyVersion, update the
// pinned hashes, and note the bump in the PR — cached results from older
// versions are then correctly treated as misses.
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
	want := map[string]string{
		"fixed/ooo": "1172abf4ff3f8518bcd3427a14610c4826b8d193b638a49807b122a23fecb85a",
		"fixed/pre": "c401a79b09e10e35332398e53fa0ceadb859a481e861a191b987c0107fc5b13a",
		"synth/ra":  "36063c2ac12faa6c46889004cffa16c830240ef7f35f63416c4a2b8cd0b4dba3",
	}
	for _, c := range goldenKeyCases(t) {
		if got := c.key.Hash(); got != want[c.name] {
			t.Errorf("%s: Hash() = %s, golden %s\nkey string: %s\n(cache identity changed — if intentional, bump exp.KeyVersion and repin)",
				c.name, got, want[c.name], c.key.String())
		}
	}
}

// The renderings CellKeyFor memoizes must be the bytes a key without the
// memo renders, so a hand-built key and a built one agree on String and
// Hash.
func TestCellKeyMemoMatchesRendering(t *testing.T) {
	for _, c := range goldenKeyCases(t) {
		k := c.key
		if k.str == "" || k.hash == "" {
			t.Fatalf("%s: CellKeyFor left the memo unset", c.name)
		}
		bare := k
		bare.str, bare.hash = "", ""
		if k.String() != bare.String() {
			t.Errorf("%s: memoized String %q, rendered %q", c.name, k.String(), bare.String())
		}
		if k.Hash() != bare.Hash() {
			t.Errorf("%s: memoized Hash %s, rendered %s", c.name, k.Hash(), bare.Hash())
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
}

// Every unique run of an expanded plan carries a memoized key, and no two
// unique runs share one.
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
		if k.str == "" || k.hash == "" {
			t.Errorf("unique %d: Plan.Key lacks the rendering memo", ui)
		}
		if seen[k.Hash()] {
			t.Errorf("unique %d: duplicate key hash %s", ui, k.Hash())
		}
		seen[k.Hash()] = true
	}
}

// A field added at zero value must leave every encoding unchanged: the
// walker lists only non-zero leaves, so growing core.Config by an
// off-by-default flag is not a results change.
func TestCanonicalEncodingIgnoresZeroFields(t *testing.T) {
	type inner struct {
		Size int
		On   bool
	}
	type before struct {
		Mode  uint8
		Name  string
		In    inner
		Delay int64
	}
	type after struct {
		Mode  uint8
		Name  string
		In    inner
		Extra struct{ Flag bool }
		Delay int64
		Added uint32
	}
	b := before{Mode: 3, Name: "L1D", In: inner{Size: 64}, Delay: -5}
	a := after{Mode: 3, Name: "L1D", In: inner{Size: 64}, Delay: -5}
	encode := func(v any) string {
		rv := reflect.ValueOf(v)
		return string(appendCanonical(nil, rv, leavesOf(rv.Type())))
	}
	eb, ea := encode(b), encode(a)
	if eb != ea {
		t.Errorf("zero-valued fields changed the encoding:\nbefore %s\nafter  %s", eb, ea)
	}
	if want := `Mode=3;Name="L1D";In.Size=64;Delay=-5;`; eb != want {
		t.Errorf("encoding = %s, want %s", eb, want)
	}
	a.Extra.Flag = true
	if got := encode(a); got == eb {
		t.Errorf("a non-zero added field left the encoding unchanged: %s", got)
	}
}

// A field of a kind the encoding cannot render must stop the walker, not
// drop out of the key (for core.Config, at package init).
func TestCanonicalEncodingRejectsUnknownKinds(t *testing.T) {
	type withFloat struct {
		Size  int
		Ratio float64
	}
	defer func() {
		if recover() == nil {
			t.Error("a float64 field was encoded instead of panicking")
		}
	}()
	leavesOf(reflect.TypeOf(withFloat{}))
}

// setLeaf sets the leaf of cfg named by l to a value derived from v: v
// itself for integer kinds (truncated to the field's width), v&1 for
// booleans, v's decimal rendering for strings.
func setLeaf(cfg *core.Config, l leaf, v int64) {
	f := reflect.ValueOf(cfg).Elem().FieldByIndex(l.index)
	switch {
	case f.Kind() == reflect.Bool:
		f.SetBool(v&1 == 1)
	case f.Kind() == reflect.String:
		f.SetString(strconv.FormatInt(v, 10))
	case f.CanInt():
		f.SetInt(v)
	default:
		f.SetUint(uint64(v))
	}
}

// perturb returns a value for leaf l that differs from its value in cfg.
func perturb(cfg core.Config, l leaf) int64 {
	f := reflect.ValueOf(cfg).FieldByIndex(l.index)
	switch {
	case f.Kind() == reflect.Bool:
		if f.Bool() {
			return 0
		}
		return 1
	case f.Kind() == reflect.String:
		return int64(len(f.String()) + 7) // no default name is a number
	case f.CanInt():
		return f.Int() + 1
	default:
		return int64(f.Uint() + 1)
	}
}

// Perturbing any single leaf of a mode's default configuration changes
// the key exactly when canonicalConfig keeps that leaf for the mode: a
// knob the mode reads must split cells, a knob it ignores must not.
func TestCellKeyTracksEveryLeaf(t *testing.T) {
	opt := testOpt()
	for _, mode := range core.Modes() {
		base := core.Default(mode)
		bk := CellKeyFor("mcf", nil, opt, base)
		for _, l := range configLeaves {
			cfg := base
			setLeaf(&cfg, l, perturb(base, l))
			kept := !reflect.DeepEqual(canonicalConfig(cfg), canonicalConfig(base))
			changed := CellKeyFor("mcf", nil, opt, cfg).String() != bk.String()
			if kept != changed {
				t.Errorf("%v: perturbing %s: canonical config differs %v, key differs %v", mode, l.path, kept, changed)
			}
		}
	}
}

// FuzzCellKey sets one fuzzed leaf on each of two configurations of one
// mode: their keys must be equal if and only if their canonical
// configurations are.
func FuzzCellKey(f *testing.F) {
	f.Add(uint8(core.ModePRE), uint16(0), int64(0), uint16(0), int64(0))
	f.Add(uint8(core.ModeOoO), uint16(30), int64(512), uint16(31), int64(512))
	f.Add(uint8(core.ModeRA), uint16(40), int64(1), uint16(41), int64(0))
	f.Fuzz(func(t *testing.T, mode uint8, i uint16, x int64, j uint16, y int64) {
		a := core.Default(core.Mode(mode % uint8(len(core.Modes()))))
		b := a
		la, lb := configLeaves[int(i)%len(configLeaves)], configLeaves[int(j)%len(configLeaves)]
		setLeaf(&a, la, x)
		setLeaf(&b, lb, y)
		opt := testOpt()
		same := reflect.DeepEqual(canonicalConfig(a), canonicalConfig(b))
		ka, kb := CellKeyFor("w", nil, opt, a), CellKeyFor("w", nil, opt, b)
		if (ka.String() == kb.String()) != same {
			t.Errorf("%s=%d vs %s=%d: canonical configs equal %v, keys equal %v\n%s\n%s",
				la.path, x, lb.path, y, same, !same, ka.String(), kb.String())
		}
		if (ka.Hash() == kb.Hash()) != same {
			t.Errorf("%s=%d vs %s=%d: key hashes disagree with the key strings", la.path, x, lb.path, y)
		}
	})
}

// keySink keeps BenchmarkCellKeyFor's result live.
var keySink CellKey

// BenchmarkCellKeyFor measures one key build — canonicalization, the
// rendering and its SHA-256 — which Expand pays once per matrix cell.
func BenchmarkCellKeyFor(b *testing.B) {
	opt := testOpt()
	cfg := core.Default(core.ModePRE)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keySink = CellKeyFor("mcf", nil, opt, cfg)
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
