package main

import (
	"io/fs"
	"path/filepath"
	"testing"
	"time"
)

// TestEveryInternalPackageHasALayer walks the module's internal/ tree:
// every package except the lint suite must fold into a named layer, or
// its profile samples would silently land in "other".
func TestEveryInternalPackageHasALayer(t *testing.T) {
	root := filepath.Join("..", "..", "internal")
	known := make(map[string]bool)
	for _, l := range layers {
		known[l] = true
	}
	n := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if rel == "lint" || d.Name() == "testdata" {
			return filepath.SkipDir
		}
		files, err := filepath.Glob(filepath.Join(path, "*.go"))
		if err != nil || len(files) == 0 {
			return err
		}
		pkg := "repro/internal/" + filepath.ToSlash(rel)
		for _, fn := range []string{pkg + ".F", pkg + ".(*T).M"} {
			l := layerOf(fn)
			if l == "other" || !known[l] {
				t.Errorf("%s folds into %q; add %s to modLayers", fn, l, pkg)
			}
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n < 20 {
		t.Fatalf("walked only %d packages under %s", n, root)
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"repro/internal/core.(*Core).dispatchOne":                "core.dispatch",
		"repro/internal/core.(*Core).dispatchPRE":                "runahead",
		"repro/internal/core.(*Core).dispatchReplay":             "runahead",
		"repro/internal/core.(*Core).maybeEnterRunahead":         "runahead",
		"repro/internal/core.(*Core).tryIssueRec":                "core.issue",
		"repro/internal/core.(*Core).wake":                       "core.issue",
		"repro/internal/core.(*issueQueue).markReady":            "core.issue",
		"repro/internal/core.(*Core).completeOne":                "core.complete",
		"repro/internal/core.(*eventQueue).popDue":               "core.complete",
		"repro/internal/core.(*eventQueue).nextAt":               "core.skip",
		"repro/internal/core.(*Core).commitStage":                "core.commit",
		"repro/internal/core.(*Core).skipAhead":                  "core.skip",
		"repro/internal/core.(*Core).wakeBound":                  "core.skip",
		"repro/internal/core.(*retrySnap).sub":                   "core.skip",
		"repro/internal/core.(*Core).Run.func1":                  "core.other",
		"repro/internal/core.(*rob).pop (inline)":                "core.other",
		"repro/internal/exp/pool.Run.func1":                      "exp",
		"repro/internal/workload/synth.(*phasedGen).Next":        "workload",
		"repro/internal/serve/cache.(*Cache).Get":                "serve",
		"type:.eq.repro/internal/sim.Result":                     "exp",
		"encoding/json.(*encodeState).marshal":                   "serialization",
		"crypto/internal/fips140/sha256.blockAVX2":               "serialization",
		"net/http.(*conn).serve":                                 "serve",
		"internal/poll.(*FD).Write":                              "serve",
		"runtime.mallocgc":                                       "go-runtime",
		"internal/runtime/maps.(*Map).getWithoutKeySmallFastStr": "go-runtime",
		"memeqbody": "go-runtime",
		"slices.SortFunc[go.shape.[]repro/internal/x.T]": "other",
		"main.(*runner).localRep":                        "other",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestFoldTop(t *testing.T) {
	top := `File: benchrec
Type: cpu
Duration: 5s, Total samples = 1.50s (30.00%)
Showing nodes accounting for 1.50s, 100% of 1.50s total
      flat  flat%   sum%        cum   cum%
     1.20s 80.00% 80.00%      1.20s 80.00%  repro/internal/core.(*Core).wake
     0.20s 13.33% 93.33%      0.20s 13.33%  runtime.mallocgc
     100ms  6.67%   100%      100ms  6.67%  repro/internal/core.(*rob).pop (inline)
         0     0%   100%      1.50s   100%  main.main
`
	got, err := foldTop([]byte(top))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"core.issue": 1200 * time.Millisecond, "go-runtime": 200 * time.Millisecond,
		"core.other": 100 * time.Millisecond, "other": 0,
	}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("layer %s: %v, want %v", l, got[l], d)
		}
	}
	if _, err := foldTop([]byte("no table here\n")); err == nil {
		t.Error("foldTop accepted output without a table")
	}
}
