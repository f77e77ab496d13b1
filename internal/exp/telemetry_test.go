package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workload"
)

// TestRunOptsProgressAndCellTiming pins the sweep-telemetry contract:
// one serialized progress event per unique run with a monotone Done
// counter, and per-cell wall-clock aggregates that survive the meta.json
// round trip.
func TestRunOptsProgressAndCellTiming(t *testing.T) {
	m := Matrix{
		Name:      "progress",
		Workloads: testWorkloads(t),
		Modes:     []core.Mode{core.ModeOoO, core.ModePRE},
		Options:   testOpt(),
	}
	plan, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var events []ProgressEvent
	set, err := plan.RunOpts(RunOptions{
		Workers:  2,
		Progress: func(ev ProgressEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != plan.NumUnique() {
		t.Fatalf("got %d progress events, want %d", len(events), plan.NumUnique())
	}
	for i, ev := range events {
		if ev.Done != i+1 {
			t.Errorf("event %d: Done = %d, want %d (serialization broken?)", i, ev.Done, i+1)
		}
		if ev.Total != plan.NumUnique() {
			t.Errorf("event %d: Total = %d, want %d", i, ev.Total, plan.NumUnique())
		}
		if ev.Workload == "" || ev.Seconds < 0 {
			t.Errorf("event %d incomplete: %+v", i, ev)
		}
		if i > 0 && ev.ElapsedSeconds < events[i-1].ElapsedSeconds {
			t.Errorf("event %d: elapsed went backwards (%v -> %v)",
				i, events[i-1].ElapsedSeconds, ev.ElapsedSeconds)
		}
	}

	meta := set.Meta()
	if meta.CellSecondsMin < 0 || meta.CellSecondsMin > meta.CellSecondsMedian ||
		meta.CellSecondsMedian > meta.CellSecondsMax {
		t.Errorf("cell timing aggregates out of order: %+v", meta)
	}
	if meta.CellSecondsTotal < meta.CellSecondsMax {
		t.Errorf("total %v < max %v", meta.CellSecondsTotal, meta.CellSecondsMax)
	}
	if meta.WorkerUtilization <= 0 {
		t.Errorf("worker utilization not recorded: %+v", meta)
	}

	dir := t.TempDir()
	if err := set.WriteFile(dir, "prog"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "prog.meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got RunMeta
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.CellSecondsMedian != meta.CellSecondsMedian ||
		got.CellSecondsMax != meta.CellSecondsMax ||
		got.WorkerUtilization != meta.WorkerUtilization {
		t.Errorf("meta.json round trip lost cell timing:\nwrote %+v\nread  %+v", meta, got)
	}
}

// panicGen is a generator that blows up mid-stream: the proxy for a bug
// in a sampled scenario's parameterization.
type panicGen struct{ n int }

func (g *panicGen) Name() string { return "panicker" }
func (g *panicGen) Next(u *uarch.Uop) {
	g.n++
	if g.n > 100 {
		panic("generator wedged")
	}
	*u = uarch.Uop{Class: uarch.ClassIntAlu, PC: 0x400000}
}

// TestRunOptsPanicNamesCell verifies a panicking cell surfaces as an
// error naming the workload, mode, and cell key instead of killing the
// pool namelessly.
func TestRunOptsPanicNamesCell(t *testing.T) {
	bad := workload.Workload{
		Name:  "panicker",
		Class: "custom",
		New:   func() trace.Generator { return &panicGen{} },
	}
	m := Matrix{
		Name:      "panic",
		Workloads: []workload.Workload{bad},
		Modes:     []core.Mode{core.ModeOoO},
		Options:   testOpt(),
	}
	plan, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	_, err = plan.Run(1)
	if err == nil {
		t.Fatal("panicking cell did not surface as an error")
	}
	key := "cell key " + plan.Key(0).Hash()[:16]
	for _, want := range []string{`workload "panicker"`, "mode OoO", key, "panicked", "generator wedged"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestRunOptsTraceRecorders verifies per-unique-run recorders: every run
// gets its own pid track, PRE runs record episodes, and the merged
// sidecar parses with one process entry per run.
func TestRunOptsTraceRecorders(t *testing.T) {
	m := Matrix{
		Name:      "traced",
		Workloads: testWorkloads(t)[:1],
		Modes:     []core.Mode{core.ModeOoO, core.ModePRE},
		Options:   testOpt(),
	}
	plan, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	set, err := plan.RunOpts(RunOptions{Workers: 2, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	recs := set.TraceRecorders()
	if len(recs) != plan.NumUnique() {
		t.Fatalf("got %d recorders, want %d", len(recs), plan.NumUnique())
	}
	episodes := 0
	for i, r := range recs {
		if r == nil {
			t.Fatalf("recorder %d is nil", i)
		}
		episodes += r.Episodes()
	}
	if episodes == 0 {
		t.Error("no recorder captured a runahead episode (PRE run traced nothing)")
	}

	path := filepath.Join(t.TempDir(), "sweep.trace.json")
	if err := set.WriteTrace(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Pid int `json:"pid"`
		} `json:"traceEvents"`
		Processes []struct {
			Pid  int    `json:"pid"`
			Name string `json:"name"`
		} `json:"processes"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("merged sidecar is not valid JSON: %v", err)
	}
	if len(doc.Processes) != plan.NumUnique() {
		t.Errorf("merged trace has %d process entries, want %d", len(doc.Processes), plan.NumUnique())
	}

	// A set run without Trace exposes no recorders and refuses WriteTrace.
	bare, err := plan.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if bare.TraceRecorders() != nil {
		t.Error("untraced set exposes recorders")
	}
	if err := bare.WriteTrace(path); err == nil {
		t.Error("WriteTrace on an untraced set did not error")
	}
}
