package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/workload/synth"
)

// testOpt keeps windows small: these tests run whole matrices.
func testOpt() sim.Options {
	return sim.Options{WarmupUops: 2_000, MeasureUops: 10_000}
}

// testWorkloads picks two fast, structurally different suite proxies.
func testWorkloads(t testing.TB) []workload.Workload {
	t.Helper()
	var ws []workload.Workload
	for _, name := range []string{"libquantum", "milc"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// runKey renders the canonical identity of a fixed-workload simulation —
// a convenience over CellKeyFor for the dedup-equivalence tests. Two runs
// with equal keys are guaranteed to produce equal Results.
func runKey(workload string, opt sim.Options, cfg core.Config) string {
	return CellKeyFor(workload, nil, opt, cfg).String()
}

func sstSweepMatrix(t testing.TB) Matrix {
	points := []Point{
		{Name: "sst=16", Apply: func(c *core.Config) { c.SSTSize = 16 }},
		{Name: "sst=64", Apply: func(c *core.Config) { c.SSTSize = 64 }},
		{Name: "sst=256", Apply: func(c *core.Config) { c.SSTSize = 256 }},
	}
	return Matrix{
		Name:        "sst-sweep",
		Workloads:   testWorkloads(t),
		Modes:       []core.Mode{core.ModePRE},
		Points:      points,
		Options:     testOpt(),
		AddBaseline: true,
	}
}

// TestExpandDedup verifies shared-baseline caching: a 3-point SST sweep
// over 2 workloads needs 3x2 PRE runs but only 2 OoO baselines, because
// the baseline never reads SSTSize.
func TestExpandDedup(t *testing.T) {
	plan, err := sstSweepMatrix(t).Expand()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plan.NumCells(), 3*2*1; got != want {
		t.Errorf("NumCells = %d, want %d", got, want)
	}
	// 6 distinct PRE configurations + 2 shared OoO baselines.
	if got, want := plan.NumUnique(), 6+2; got != want {
		t.Errorf("NumUnique = %d, want %d (shared-baseline caching broken?)", got, want)
	}
}

// TestBaselineSharingIsSound pins the canonicalConfig assumption
// empirically: simulating OoO with different (mode-irrelevant) runahead
// knobs must produce identical results, otherwise deduplication would
// change answers.
func TestBaselineSharingIsSound(t *testing.T) {
	w := testWorkloads(t)[1] // milc
	run := func(configure func(*core.Config)) sim.Result {
		opt := testOpt()
		opt.Configure = configure
		r, err := sim.Run(w, core.ModeOoO, opt)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := run(nil)
	varied := run(func(c *core.Config) {
		c.SSTSize = 16
		c.EMQSize = 1536
		c.ChainMaxLen = 8
		c.MinRunaheadCycles = 999
		c.PREMaxDivergence = 1
		c.ReplayLookahead = 64
		c.RunaheadWidth = 12
	})
	if !reflect.DeepEqual(base, varied) {
		t.Errorf("OoO results depend on runahead knobs; canonicalConfig's table is wrong:\nbase   %+v\nvaried %+v", base, varied)
	}
}

// TestModeRelevantKnobsStayDistinct is the dedup counterpart: knobs a
// mode does read must keep runs distinct.
func TestModeRelevantKnobsStayDistinct(t *testing.T) {
	cfgA := core.Default(core.ModePRE)
	cfgB := core.Default(core.ModePRE)
	cfgB.SSTSize = 16
	if runKey("w", testOpt(), cfgA) == runKey("w", testOpt(), cfgB) {
		t.Error("PRE runs with different SSTSize deduplicated")
	}
	cfgC := core.Default(core.ModeRA)
	cfgD := core.Default(core.ModeRA)
	cfgD.MinRunaheadCycles = 0
	if runKey("w", testOpt(), cfgC) == runKey("w", testOpt(), cfgD) {
		t.Error("RA runs with different MinRunaheadCycles deduplicated")
	}
}

// TestDeterministicJSON runs the same matrix at 1, 4 and GOMAXPROCS
// workers and requires byte-identical results JSON: the orchestrator's
// core contract.
func TestDeterministicJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full matrices")
	}
	m := sstSweepMatrix(t)
	var reference []byte
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		plan, err := m.Expand()
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
			t.Fatalf("results JSON differs at %d workers", workers)
		}
	}
}

// pfGridMatrix is the PF-augmented grid: modes x prefetcher variants.
func pfGridMatrix(t testing.TB) Matrix {
	points := make([]Point, 0, 3)
	for _, v := range prefetch.Variants()[:3] { // no-pf, stride, best-offset
		v := v
		points = append(points, Point{Name: v.Name, Apply: func(c *core.Config) { c.ApplyPrefetch(v) }})
	}
	return Matrix{
		Name:      "pf-grid",
		Workloads: testWorkloads(t),
		Modes:     []core.Mode{core.ModeOoO, core.ModePRE},
		Points:    points,
		Options:   testOpt(),
	}
}

// TestPFGridDeterministicJSON extends the determinism contract to the
// prefetcher axis: a {OoO, PRE} x {no-pf, stride, best-offset} matrix
// must serialize byte-identically at any worker count, with the PF
// metrics populated in the prefetching cells.
func TestPFGridDeterministicJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full matrices")
	}
	m := pfGridMatrix(t)
	var reference []byte
	for _, workers := range []int{1, 4} {
		plan, err := m.Expand()
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
			// Spot-check the axis actually changes the simulation: the
			// stride point must record prefetch issue on the streaming
			// workload, the no-pf point must not.
			if r := set.Result(1, 0, 0); r.HWPrefIssued == 0 {
				t.Error("stride point issued no hardware prefetches on libquantum")
			}
			if r := set.Result(0, 0, 0); r.HWPrefIssued != 0 {
				t.Error("no-pf point issued hardware prefetches")
			}
			continue
		}
		if !bytes.Equal(reference, buf.Bytes()) {
			t.Fatalf("PF-grid results JSON differs at %d workers", workers)
		}
	}
}

// TestPFPointsStayDistinct pins the dedup key's sensitivity to the
// prefetcher configuration: same mode, different PF variant must never
// share a simulation — for ANY mode, including the baseline (the
// prefetcher changes OoO results, unlike runahead knobs).
func TestPFPointsStayDistinct(t *testing.T) {
	for _, mode := range core.Modes() {
		cfgA := core.Default(mode)
		cfgB := core.Default(mode)
		cfgB.ApplyPrefetch(prefetch.Variants()[1]) // stride
		if runKey("w", testOpt(), cfgA) == runKey("w", testOpt(), cfgB) {
			t.Errorf("%v: no-pf and stride configurations deduplicated", mode)
		}
	}
	// The adaptive layer's knobs are behavioral too: every standard
	// variant — including the ones differing only in the filter bit or a
	// throttle epoch — must fingerprint distinctly under a runahead mode.
	seen := map[string]string{}
	for _, v := range prefetch.Variants() {
		cfg := core.Default(core.ModePRE)
		cfg.ApplyPrefetch(v)
		key := runKey("w", testOpt(), cfg)
		if prev, ok := seen[key]; ok {
			t.Errorf("variants %q and %q share a dedup key", prev, v.Name)
		}
		seen[key] = v.Name
	}
	// Under the OoO baseline, though, the PRE-aware filter is inert (no
	// runahead-tagged fills exist), so a filtered variant must dedup onto
	// its unfiltered twin's baseline.
	combined, err := prefetch.VariantByName("stride+bo")
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := prefetch.VariantByName("filtered")
	if err != nil {
		t.Fatal(err)
	}
	cfgA := core.Default(core.ModeOoO)
	cfgA.ApplyPrefetch(combined)
	cfgB := core.Default(core.ModeOoO)
	cfgB.ApplyPrefetch(filtered)
	if runKey("w", testOpt(), cfgA) != runKey("w", testOpt(), cfgB) {
		t.Error("OoO baselines of stride+bo and filtered did not dedup (the filter cannot act without runahead)")
	}
}

// TestWriteFileEmitsMetaSibling verifies the sink writes the execution
// metadata beside, not inside, the results document: the results bytes
// stay worker-count-invariant while the meta file records wall-clock and
// pool width.
func TestWriteFileEmitsMetaSibling(t *testing.T) {
	m := Matrix{
		Workloads: testWorkloads(t)[:1],
		Modes:     []core.Mode{core.ModeOoO},
		Options:   testOpt(),
	}
	plan, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	set, err := plan.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	meta := set.Meta()
	if meta.Schema != SchemaVersion || meta.Workers != 1 || meta.EffectiveWorkers != 1 {
		t.Errorf("meta = %+v", meta)
	}
	if meta.WallClockSeconds <= 0 {
		t.Error("wall clock not recorded")
	}
	if meta.GOMAXPROCS <= 0 || meta.UniqueRuns != plan.NumUnique() {
		t.Errorf("meta environment block wrong: %+v", meta)
	}
	dir := t.TempDir()
	if err := set.WriteFile(dir, "out"); err != nil {
		t.Fatal(err)
	}
	results, err := os.ReadFile(filepath.Join(dir, "out.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(results, []byte("wall_clock_seconds")) {
		t.Error("wall clock leaked into the byte-identical results document")
	}
	raw, err := os.ReadFile(filepath.Join(dir, "out.meta.json"))
	if err != nil {
		t.Fatalf("meta sibling not written: %v", err)
	}
	var got RunMeta
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaVersion || got.WallClockSeconds <= 0 {
		t.Errorf("meta file contents wrong: %+v", got)
	}
}

// TestSpeedupsMatchSerialReference recomputes one sweep column the
// pre-orchestrator way (fresh baseline per point, one run at a time) and
// requires exact agreement with the orchestrated, deduplicated result.
func TestSpeedupsMatchSerialReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full matrices")
	}
	m := sstSweepMatrix(t)
	plan, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	set, err := plan.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{16, 64, 256}
	for pi, size := range sizes {
		for wi, w := range m.Workloads {
			opt := testOpt()
			opt.Configure = func(c *core.Config) { c.SSTSize = size }
			base, err := sim.Run(w, core.ModeOoO, opt)
			if err != nil {
				t.Fatal(err)
			}
			r, err := sim.Run(w, core.ModePRE, opt)
			if err != nil {
				t.Fatal(err)
			}
			want := r.Speedup(base)
			if got := set.Speedup(pi, wi, 0); got != want {
				t.Errorf("point %d workload %s: orchestrated speedup %v != serial %v",
					size, w.Name, got, want)
			}
		}
	}
}

// TestKeyHashesAreStable verifies cell keys derive from run identity:
// re-expanding the same matrix reproduces every key hash, and distinct
// runs get distinct hashes.
func TestKeyHashesAreStable(t *testing.T) {
	m := sstSweepMatrix(t)
	a, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if a.NumUnique() != b.NumUnique() {
		t.Fatalf("re-expansion changed unique count: %d vs %d", a.NumUnique(), b.NumUnique())
	}
	seen := make(map[string]bool)
	for ui := 0; ui < a.NumUnique(); ui++ {
		h := a.Key(ui).Hash()
		if h != b.Key(ui).Hash() {
			t.Errorf("unique run %d: key hash changed across expansions", ui)
		}
		if seen[h] {
			t.Errorf("unique run %d: key hash collision", ui)
		}
		seen[h] = true
	}
}

// TestExpandErrors covers matrix validation.
func TestExpandErrors(t *testing.T) {
	ws := testWorkloads(t)
	cases := []struct {
		name string
		m    Matrix
	}{
		{"no workloads", Matrix{Modes: []core.Mode{core.ModeOoO}, Options: testOpt()}},
		{"no modes", Matrix{Workloads: ws, Options: testOpt()}},
		{"no window", Matrix{Workloads: ws, Modes: []core.Mode{core.ModeOoO}}},
		{"negative warmup", Matrix{Workloads: ws, Modes: []core.Mode{core.ModeOoO},
			Options: sim.Options{WarmupUops: -7, MeasureUops: 10_000}}},
		{"duplicate point", Matrix{Workloads: ws, Modes: []core.Mode{core.ModeOoO},
			Options: testOpt(), Points: []Point{{Name: "p"}, {Name: "p"}}}},
		{"unnamed point", Matrix{Workloads: ws, Modes: []core.Mode{core.ModeOoO},
			Options: testOpt(), Points: []Point{{}}}},
		{"duplicate workload", Matrix{Workloads: []workload.Workload{ws[0], ws[0]},
			Modes: []core.Mode{core.ModeOoO}, Options: testOpt()}},
		{"invalid config", Matrix{Workloads: ws, Modes: []core.Mode{core.ModePRE},
			Options: testOpt(),
			Points:  []Point{{Name: "bad", Apply: func(c *core.Config) { c.SSTSize = -1 }}}}},
	}
	for _, tc := range cases {
		if _, err := tc.m.Expand(); err == nil {
			t.Errorf("%s: Expand succeeded, want error", tc.name)
		}
	}
}

// TestNoBaseline verifies speedups degrade gracefully without a baseline.
func TestNoBaseline(t *testing.T) {
	m := Matrix{
		Workloads: testWorkloads(t)[:1],
		Modes:     []core.Mode{core.ModePRE},
		Options:   testOpt(),
	}
	plan, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	set, err := plan.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := set.Baseline(0, 0); ok {
		t.Error("Baseline reported present without AddBaseline or OoO in Modes")
	}
	if s := set.Speedup(0, 0, 0); s != 0 {
		t.Errorf("Speedup without baseline = %v, want 0", s)
	}
	// Serialization must degrade gracefully, not panic on the 0 speedups.
	var buf bytes.Buffer
	if err := set.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON without baseline: %v", err)
	}
	for _, g := range set.GeoMeanSpeedups(0) {
		if g != 0 {
			t.Errorf("GeoMeanSpeedups without baseline = %v, want 0", g)
		}
	}
}

// TestDocumentRecordsImplicitBaselines verifies AddBaseline sweeps
// serialize their baseline runs: the document must be self-describing
// (baseline IPC recoverable without rerunning).
func TestDocumentRecordsImplicitBaselines(t *testing.T) {
	plan, err := sstSweepMatrix(t).Expand()
	if err != nil {
		t.Fatal(err)
	}
	set, err := plan.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	doc := set.Document()
	// 3 points x 2 workloads, but only 2 unique baseline simulations:
	// one entry per (point, workload), later ones marked Shared.
	if got, want := len(doc.Baselines), 3*2; got != want {
		t.Fatalf("len(Baselines) = %d, want %d", got, want)
	}
	fresh := 0
	for _, c := range doc.Baselines {
		if c.Mode != core.ModeOoO.String() {
			t.Errorf("baseline cell mode = %s", c.Mode)
		}
		if c.Result.IPC <= 0 {
			t.Errorf("baseline %s/%s has no result", c.Point, c.Workload)
		}
		if !c.Shared {
			fresh++
		}
	}
	if fresh != 2 {
		t.Errorf("fresh baseline runs = %d, want 2 (dedup broken?)", fresh)
	}
	// When the baseline mode is a matrix axis, Baselines must be empty —
	// those runs are already Cells.
	m := sstSweepMatrix(t)
	m.Modes = []core.Mode{core.ModeOoO, core.ModePRE}
	plan2, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	set2, err := plan2.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if doc2 := set2.Document(); len(doc2.Baselines) != 0 {
		t.Errorf("Baselines populated (%d) with baseline mode in Modes", len(doc2.Baselines))
	}
}

// populationMatrix is a small population sweep: sampled scenarios only,
// OoO baseline in the modes axis.
func populationMatrix(count int) Matrix {
	return Matrix{
		Name:  "pop",
		Modes: []core.Mode{core.ModeOoO, core.ModePRE},
		Population: &Population{
			Space: synth.DefaultSpace(),
			Count: count,
		},
		Options: testOpt(),
	}
}

// TestPopulationExpand verifies the sampled axis: Count scenarios appear
// after the fixed workloads, each carrying its sampled parameters.
func TestPopulationExpand(t *testing.T) {
	m := populationMatrix(4)
	m.Workloads = testWorkloads(t) // mixed fixed + sampled axis
	plan, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	ws := plan.Workloads()
	if len(ws) != 2+4 {
		t.Fatalf("expanded workload axis has %d entries, want 6", len(ws))
	}
	if got, want := plan.NumCells(), 6*2; got != want {
		t.Errorf("NumCells = %d, want %d", got, want)
	}
	for wi, w := range ws {
		params := plan.SynthParams(wi)
		if wi < 2 {
			if params != nil {
				t.Errorf("fixed workload %s has synth params", w.Name)
			}
			continue
		}
		if params == nil {
			t.Fatalf("population workload %s missing synth params", w.Name)
		}
		if w.Name != "s"+params.Seed {
			t.Errorf("scenario name %q does not encode its seed %q", w.Name, params.Seed)
		}
		if w.Class != "synth" || len(params.Phases) == 0 {
			t.Errorf("scenario %s malformed: class %q, %d phases", w.Name, w.Class, len(params.Phases))
		}
	}
	// Re-expansion must sample the identical population.
	plan2, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for wi := range ws {
		if !reflect.DeepEqual(plan.SynthParams(wi), plan2.SynthParams(wi)) {
			t.Errorf("workload %d: params differ across expansions", wi)
		}
	}
}

// TestPopulationDeterministicJSON extends the byte-identical contract to
// population sweeps, and requires every population cell to record its
// sampled parameters — the reproducibility fix: a failing CI seed must be
// reconstructible from the artifact alone.
func TestPopulationDeterministicJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full matrices")
	}
	var reference []byte
	for _, workers := range []int{1, 4} {
		plan, err := populationMatrix(4).Expand()
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
			doc := set.Document()
			if doc.Population == nil || doc.Population.Count != 4 {
				t.Fatal("population block missing from document")
			}
			if doc.Population.Space.Name != "default" || len(doc.Population.Space.Strides) == 0 {
				t.Error("sampling space not serialized into the artifact")
			}
			if len(doc.Population.Stats) != 1 || len(doc.Population.Stats[0]) != 2 {
				t.Errorf("population stats shape wrong: %+v", doc.Population.Stats)
			}
			for _, c := range doc.Cells {
				if c.Synth == nil {
					t.Fatalf("population cell %s/%s has no synth params", c.Workload, c.Mode)
				}
				if got := len(c.Synth.Phases); got == 0 {
					t.Errorf("cell %s records empty phases", c.Workload)
				}
			}
			continue
		}
		if !bytes.Equal(reference, buf.Bytes()) {
			t.Fatalf("population results JSON differs at %d workers", workers)
		}
	}
}

// TestPopulationStats pins the aggregation: Min is the true minimum of
// the per-seed speedups, WorstSeed names its scenario, and the summary
// orderings hold.
func TestPopulationStats(t *testing.T) {
	plan, err := populationMatrix(5).Expand()
	if err != nil {
		t.Fatal(err)
	}
	set, err := plan.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	ps := set.PopulationStats(0)
	if len(ps) != 2 {
		t.Fatalf("PopulationStats returned %d modes, want 2", len(ps))
	}
	for mi, st := range ps {
		if st.Count != 5 {
			t.Errorf("%v: count %d, want 5", st.Mode, st.Count)
		}
		xs := set.SeedSpeedups(0, mi)
		if len(xs) != 5 {
			t.Fatalf("%v: %d seed speedups, want 5", st.Mode, len(xs))
		}
		min, argmin := xs[0], 0
		for i, x := range xs {
			if x < min {
				min, argmin = x, i
			}
		}
		if st.Min != min {
			t.Errorf("%v: Min %v != true minimum %v", st.Mode, st.Min, min)
		}
		if want := plan.Workloads()[argmin].Name; st.WorstSeed != want {
			t.Errorf("%v: WorstSeed %q, want %q", st.Mode, st.WorstSeed, want)
		}
		if st.Median < st.Min || st.GeoMean < st.Min {
			t.Errorf("%v: summary below minimum: %+v", st.Mode, st)
		}
	}
	// The OoO row is the baseline: identically 1.
	if ps[0].Mode != core.ModeOoO || ps[0].Min != 1 || ps[0].GeoMean != 1 {
		t.Errorf("baseline population stats not unity: %+v", ps[0])
	}
}

// TestPopulationStatsDegenerate pins the degenerate-seed fix: a sampled
// scenario whose run commits essentially nothing yields a 0 (or NaN)
// speedup, which previously detonated stats.GeoMean mid-sweep. Such
// seeds must instead be counted in Degenerate and excluded from
// Min/Median/GeoMean.
func TestPopulationStatsDegenerate(t *testing.T) {
	plan, err := populationMatrix(5).Expand()
	if err != nil {
		t.Fatal(err)
	}
	set, err := plan.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	// Force one non-baseline cell to a dead run (IPC 0 -> speedup 0).
	set.res[set.plan.cells[set.cellIndex(0, 0, 1)]].IPC = 0
	ps := set.PopulationStats(0) // must not panic
	if len(ps) != 2 {
		t.Fatalf("PopulationStats returned %d modes, want 2", len(ps))
	}
	st := ps[1]
	if st.Degenerate != 1 {
		t.Errorf("Degenerate = %d, want 1", st.Degenerate)
	}
	if st.Count != 4 {
		t.Errorf("Count = %d, want 4 (degenerate seed excluded)", st.Count)
	}
	if st.Min <= 0 || st.GeoMean <= 0 {
		t.Errorf("summary polluted by degenerate seed: %+v", st)
	}
	// The baseline mode is untouched by the dead cell.
	if ps[0].Degenerate != 0 || ps[0].Count != 5 {
		t.Errorf("baseline row changed: %+v", ps[0])
	}
	// GeoMeanSpeedups over the same point must also survive.
	for mi, gm := range set.GeoMeanSpeedups(0) {
		if gm <= 0 {
			t.Errorf("GeoMeanSpeedups[%d] = %v, want > 0", mi, gm)
		}
	}
}

// TestPopulationErrors covers population validation.
func TestPopulationErrors(t *testing.T) {
	bad := populationMatrix(0)
	if _, err := bad.Expand(); err == nil {
		t.Error("zero-count population expanded")
	}
	invalid := populationMatrix(2)
	invalid.Population.Space.Strides = nil
	if _, err := invalid.Expand(); err == nil {
		t.Error("invalid space expanded")
	}
}
