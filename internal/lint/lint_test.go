package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/annot"
)

// repoFiles parses every Go source file of the real module (skipping
// testdata and hidden directories) with comments, into one FileSet.
func repoFiles(t *testing.T) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			return perr
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatalf("walking repo sources: %v", err)
	}
	if len(files) == 0 {
		t.Fatal("no Go files found under repo root")
	}
	return fset, files
}

// TestAnnotationRegistryParsesFromRepoSources is the registry meta-test:
// the //sim:* annotations placed across the real sources must parse, use
// only registered kinds, and cover the functions the standing contracts
// name. A typoed kind or a comment that gofmt moved off its anchor line
// would silently disable a contract; this test turns that into a failure.
func TestAnnotationRegistryParsesFromRepoSources(t *testing.T) {
	fset, files := repoFiles(t)
	ix := annot.Collect(fset, files)

	for _, a := range ix.Unknown() {
		t.Errorf("%s:%d: unknown annotation kind //sim:%s (registry: %v)", a.File, a.Line, a.Kind, annot.Kinds())
	}

	counts := make(map[string]int)
	for _, a := range ix.All() {
		counts[a.Kind]++
	}
	t.Logf("annotation counts: %v", counts)
	min := map[string]int{
		annot.KindHotPath:   27, // core pipeline stages, cycle skipper, runahead structures, mem, prefetchers
		annot.KindPure:      6,  // skipper probes on cache/mem
		annot.KindWallclock: 10, // meta.json timings, progress display, test deadlines
	}
	for kind, want := range min {
		if counts[kind] < want {
			t.Errorf("expected at least %d //sim:%s annotations in repo sources, found %d", want, kind, counts[kind])
		}
	}

	// Spot-check function-level coverage: these are the anchor functions
	// the ROADMAP contracts name. Matching is by file suffix + function
	// name so the test survives repository relocation.
	wantFuncs := []struct {
		fileSuffix, fn, kind string
	}{
		{"internal/core/core.go", "Step", annot.KindHotPath},
		{"internal/core/core.go", "dispatchStage", annot.KindHotPath},
		{"internal/core/skip.go", "skipAhead", annot.KindHotPath},
		{"internal/cache/cache.go", "Contains", annot.KindPure},
		{"internal/cache/cache.go", "RunaheadInFlight", annot.KindPure},
		{"internal/mem/mem.go", "access", annot.KindHotPath},
		{"internal/mem/mem.go", "filteredByRunahead", annot.KindPure},
	}
	for _, w := range wantFuncs {
		found := false
		for _, f := range files {
			fname := filepath.ToSlash(fset.Position(f.Pos()).Filename)
			if !strings.HasSuffix(fname, w.fileSuffix) {
				continue
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Name.Name != w.fn {
					continue
				}
				if ix.FuncHas(fn, w.kind) {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("%s: func %s is not annotated //sim:%s (contract anchor missing)", w.fileSuffix, w.fn, w.kind)
		}
	}
}

// TestRepoIsSimlintClean runs the full analyzer suite over the real
// module, tests included — the same invocation CI runs. The repo must
// stay clean: every wall-clock read annotated, no raw seeds in workload
// generation, hot paths allocation-free, probes pure.
func TestRepoIsSimlintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load is slow; skipped with -short")
	}
	findings, err := lint.Run(filepath.Join("..", ".."), []string{"./..."}, lint.Analyzers(), true)
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s: [%s] %s", f.Pos(), f.Analyzer, f.Message)
	}
}

// TestFixtureFindingsCarryContractMetadata runs the suite over the
// fixture tree (which violates every contract on purpose) and asserts
// the diagnostics are actionable: each carries the contract it enforces
// and the runtime test it front-runs, every analyzer fires at least
// once, unknown annotation kinds are reported, and at least one finding
// offers an insertable fix.
func TestFixtureFindingsCarryContractMetadata(t *testing.T) {
	findings, err := lint.Run(filepath.Join("testdata", "src"), []string{"..."}, lint.Analyzers(), true)
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	if len(findings) == 0 {
		t.Fatal("fixture tree produced no findings; the suite is not firing")
	}
	byAnalyzer := make(map[string]int)
	haveFix := false
	for _, f := range findings {
		byAnalyzer[f.Analyzer]++
		if f.Contract == "" {
			t.Errorf("%s: [%s] finding has no contract: %s", f.Pos(), f.Analyzer, f.Message)
		}
		if f.RuntimeTest == "" {
			t.Errorf("%s: [%s] finding names no runtime test: %s", f.Pos(), f.Analyzer, f.Message)
		}
		if f.Fix != nil {
			haveFix = true
		}
	}
	for _, name := range []string{"determinism", "hotalloc", "nilguard", "purity", "seedpurity", "annotations"} {
		if byAnalyzer[name] == 0 {
			t.Errorf("analyzer %q produced no fixture findings (fixtures: %v)", name, byAnalyzer)
		}
	}
	if !haveFix {
		t.Error("no finding carried a suggested fix; determinism should offer //sim:wallclock inserts")
	}
}
