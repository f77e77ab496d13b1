package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// modLayers maps the module's packages to host-time layers. Every
// package under internal/ except the lint suite (which never runs inside
// a simulation) has an entry or, for core, a per-function rule.
var modLayers = map[string]string{
	"repro/internal/frontend":       "frontend",
	"repro/internal/rename":         "rename",
	"repro/internal/uarch":          "core.other",
	"repro/internal/runahead":       "runahead",
	"repro/internal/cache":          "cache",
	"repro/internal/mem":            "mem",
	"repro/internal/dram":           "dram",
	"repro/internal/prefetch":       "prefetch",
	"repro/internal/trace":          "workload",
	"repro/internal/workload":       "workload",
	"repro/internal/workload/synth": "workload",
	"repro/internal/exp":            "exp",
	"repro/internal/exp/pool":       "exp",
	"repro/internal/sim":            "exp",
	"repro/internal/energy":         "exp",
	"repro/internal/stats":          "exp",
	"repro/internal/report":         "exp",
	"repro/internal/telemetry":      "exp",
	"repro/internal/serve":          "serve",
	"repro/internal/serve/cache":    "serve",
}

// stdLayers maps standard-library packages (and their subpackages) to
// layers: the Go runtime, encoding and hashing of results documents and
// cache entries, and the HTTP and I/O stack the service runs on.
var stdLayers = []struct{ pkg, layer string }{
	{"runtime", "go-runtime"},
	{"internal/runtime", "go-runtime"},
	{"internal/bytealg", "go-runtime"},
	{"internal/abi", "go-runtime"},
	{"internal/godebug", "go-runtime"},
	{"internal/sync", "go-runtime"},
	{"internal/chacha8rand", "go-runtime"},
	{"sync", "go-runtime"},
	{"time", "go-runtime"},
	{"encoding", "serialization"},
	{"crypto", "serialization"},
	{"hash", "serialization"},
	{"reflect", "serialization"},
	{"strconv", "serialization"},
	{"fmt", "serialization"},
	{"internal/fmtsort", "serialization"},
	{"bytes", "serialization"},
	{"unicode", "serialization"},
	{"net", "serve"},
	{"vendor/golang.org/x/net", "serve"},
	{"mime", "serve"},
	{"bufio", "serve"},
	{"io", "serve"},
	{"os", "serve"},
	{"syscall", "serve"},
	{"internal/poll", "serve"},
	{"internal/syscall", "serve"},
	{"context", "serve"},
	{"container/list", "serve"},
}

// coreRunahead names the core's runahead-mode functions outside the
// *Runahead*/*Replay* naming pattern: PRE dispatch and execution, EMQ
// re-dispatch, SST training, stall detection and the snapshots.
var coreRunahead = map[string]bool{
	"dispatchPRE": true, "preExecute": true, "dispatchFromEMQ": true, "learnProducers": true,
	"onFullWindow": true, "takeSnapshotInto": true, "restoreSnapshot": true,
}

// splitFunc splits a profile function name into its package path, its
// receiver type (without pointer) and its function or method name.
// Closure and generic-instance suffixes are dropped.
func splitFunc(name string) (pkg, recv, fn string) {
	name = strings.TrimSuffix(name, " (inline)")
	// Compiler-generated equality functions belong to the type's package.
	name = strings.TrimPrefix(name, "type:.eq.")
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name, "", ""
	}
	pkg, rest := name[:slash+1+dot], name[slash+2+dot:]
	if strings.HasPrefix(rest, "(") {
		if end := strings.Index(rest, ")."); end > 0 {
			recv, rest = strings.TrimPrefix(rest[1:end], "*"), rest[end+2:]
		}
	}
	fn, _, _ = strings.Cut(rest, ".")
	return pkg, recv, fn
}

// coreLayer splits internal/core by pipeline stage, by function name.
func coreLayer(recv, fn string) string {
	switch recv {
	case "issueQueue", "fuPools":
		if fn == "nextDivFree" {
			return "core.skip"
		}
		return "core.issue"
	case "eventQueue", "eventHeap":
		if fn == "nextAt" {
			return "core.skip"
		}
		return "core.complete"
	case "retrySnap":
		return "core.skip"
	case "prePool":
		return "runahead"
	}
	switch {
	case coreRunahead[fn] || strings.Contains(fn, "Runahead") || strings.Contains(fn, "Replay"):
		return "runahead"
	case strings.HasPrefix(fn, "dispatch"):
		return "core.dispatch"
	case strings.HasPrefix(fn, "issue"), strings.HasPrefix(fn, "tryIssue"),
		fn == "wake", fn == "enqueue", fn == "countIssue":
		return "core.issue"
	case strings.HasPrefix(fn, "complete"):
		return "core.complete"
	case strings.HasPrefix(fn, "commit"):
		return "core.commit"
	case strings.HasPrefix(fn, "skip"), strings.HasPrefix(fn, "retry"), fn == "wakeBound",
		fn == "captureRetry", fn == "applyRetryDelta", fn == "cacheRetryOf":
		return "core.skip"
	}
	return "core.other"
}

// layerOf maps one profile function name to its layer.
func layerOf(name string) string {
	pkg, recv, fn := splitFunc(name)
	if fn == "" {
		// An unqualified symbol is one of the runtime's assembly
		// routines (memeqbody, gcWriteBarrier, ...).
		return "go-runtime"
	}
	if pkg == "repro/internal/core" {
		return coreLayer(recv, fn)
	}
	if l, ok := modLayers[pkg]; ok {
		return l
	}
	for _, s := range stdLayers {
		if pkg == s.pkg || strings.HasPrefix(pkg, s.pkg+"/") {
			return s.layer
		}
	}
	return "other"
}

// foldProfile folds a CPU profile's flat samples into layers through
// `go tool pprof -top`, returning CPU time per layer.
func foldProfile(path string) (map[string]time.Duration, error) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		return nil, fmt.Errorf("folding the profile needs the go command: %w", err)
	}
	cmd := exec.Command(goTool, "tool", "pprof", "-top",
		"-nodecount=100000", "-nodefraction=0", "-edgefraction=0", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.Bytes())
	}
	return foldTop(out)
}

// foldTop parses `pprof -top` output: after the column header, each line
// is "flat flat% sum% cum cum% function".
func foldTop(top []byte) (map[string]time.Duration, error) {
	byLayer := make(map[string]time.Duration)
	sc := bufio.NewScanner(bytes.NewReader(top))
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := time.ParseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof -top: bad flat value in %q", sc.Text())
		}
		byLayer[layerOf(strings.Join(f[5:], " "))] += flat
	}
	if !inTable {
		return nil, fmt.Errorf("pprof -top: no table in output")
	}
	return byLayer, sc.Err()
}
