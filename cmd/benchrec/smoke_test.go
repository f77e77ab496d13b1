package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/workload/synth"
)

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// inTempDir runs the rest of the test from a fresh directory, so the
// benchmark's .bench_build scratch files land there.
func inTempDir(t *testing.T) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

// TestSmoke runs every workload end to end with tiny windows, untraced
// and traced, and checks that the result line carries exactly the
// metrics BENCHMARK.json names, each with its unit, that every one is
// also printed on its own line, and that no operation failed.
func TestSmoke(t *testing.T) {
	bench := readBenchmark(t)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bench.Workloads), len(workloads))
	}
	inTempDir(t)
	for _, w := range bench.Workloads {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": bench.EndToEnd, "1": bench.PerLayer} {
			var out, errs bytes.Buffer
			args := []string{"-workload", w.Name, "-smoke", "-seconds", "0", "-trace", trace}
			if code := run(args, &out, &errs); code != 0 {
				t.Fatalf("%v: exit %d\n%s", args, code, errs.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line is not the result: %v", args, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%v: correct %v, %d of %d operations failed", args, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%v: %d metrics, BENCHMARK.json names %d", args, len(res.Metrics), len(want))
			}
			printed := strings.Join(lines[:len(lines)-1], "\n")
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%v: metric %s = %+v, want unit %q", args, m.Name, got, m.Unit)
				}
				if !strings.Contains(printed, fmt.Sprintf("\n%-34s %14.6g %-10s", m.Name, got.Value, m.Unit)) {
					t.Errorf("%v: metric %s not printed on its own line", args, m.Name)
				}
			}
		}
	}
}

// TestTamperedResultCountsAsFailed simulates a small suite-ra document
// and checks that the correctness gate catches a cell whose statistics
// were altered after the fact.
func TestTamperedResultCountsAsFailed(t *testing.T) {
	inTempDir(t)
	wl, err := workloadByName("suite-ra")
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{wl: wl, set: smoke, spec: wl.specFor(smoke, synth.DefaultBaseSeed), tmp: t.TempDir(), hc: http.DefaultClient}
	o, err := r.rep(0)
	if err != nil {
		t.Fatal(err)
	}
	spec, doc := r.spec.Name, o.doc
	recode := func(edit func(*exp.Cell)) []byte {
		var d exp.Document
		if err := json.Unmarshal(doc, &d); err != nil {
			t.Fatal(err)
		}
		if edit != nil {
			edit(&d.Cells[1])
		}
		b, err := json.MarshalIndent(&d, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	if !bytes.Equal(recode(nil), doc) {
		t.Fatal("re-encoding an untouched document changed it; the tampering below would prove nothing")
	}
	pins := newChecker(nil)
	pins.simulated(spec, doc)

	for name, edit := range map[string]func(*exp.Cell){
		"committed": func(c *exp.Cell) { c.Result.Committed += 100 }, // breaks the commit invariant
		"cycles":    func(c *exp.Cell) { c.Result.Cycles++ },         // only the digest sees it
	} {
		tampered := recode(edit)
		chk := newChecker(pins.seen)
		chk.simulated(spec, doc)
		if chk.failed != 0 {
			t.Fatalf("%s: the genuine document failed: %v", name, chk.problems)
		}
		chk.simulated(spec, tampered)
		// The tampered document differs from the reference, and its cell
		// fails on its own.
		if chk.failed != 2 {
			t.Errorf("%s: %d failed operations, want 2: %v", name, chk.failed, chk.problems)
		}
		first := newChecker(pins.seen)
		first.simulated(spec, tampered)
		if first.failed != 1 {
			t.Errorf("%s as the first document: %d failed operations, want 1: %v", name, first.failed, first.problems)
		}
	}
}

func TestUpdateRefusesNonDefaultSeed(t *testing.T) {
	var errs bytes.Buffer
	for _, args := range [][]string{
		{"-workload", "suite-ra", "-update", "-seed", "1"},
		{"-workload", "suite-ra", "-update", "-smoke"},
		{"-workload", "suite-ra", "-trace", "maybe"},
		{"-workload", "suite-ra", "-seed", "xyz"},
		{"-workload", "suite-ra", "extra"},
	} {
		if _, err := parseFlags(args, &errs); err == nil {
			t.Errorf("parseFlags(%v) accepted", args)
		}
	}
	o, err := parseFlags([]string{"--workload", "pf-grid", "--seed", "10", "--seconds", "3", "--trace", "1"}, &errs)
	if err != nil || o.seed != 0x10 || !o.trace || o.seconds != 3 {
		t.Errorf("parseFlags of the double-dash flag form = %+v, %v", o, err)
	}
}
