package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// outSchema versions the -out results file. Bump it on any layout change
// so tools that diff two files can refuse a mismatch.
const outSchema = 1

// outFile is the -out results file: host facts plus one entry per
// workload and pass, so four invocations can fill one file.
type outFile struct {
	Schema    int                 `json:"schema"`
	Host      hostFacts           `json:"host"`
	Workloads map[string]outEntry `json:"workloads"`
}

// outEntry is one workload's run. The key in outFile.Workloads is the
// workload name, suffixed "+trace" for a traced run.
type outEntry struct {
	Seed      string            `json:"seed"`
	Smoke     bool              `json:"smoke,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostFacts describe the machine and build a run measured.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func readHostFacts() hostFacts {
	h := hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// go build stamps the commit when it builds inside a git checkout.
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

// writeOut merges this run into the -out file, replacing an earlier
// entry for the same workload and pass.
func writeOut(opt options, res outcome) error {
	f := outFile{Schema: outSchema, Workloads: map[string]outEntry{}}
	b, err := os.ReadFile(opt.out)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(b, &f); err != nil {
			return fmt.Errorf("%s: %w", opt.out, err)
		}
		if f.Schema != outSchema {
			return fmt.Errorf("%s: schema %d, this benchmark writes %d", opt.out, f.Schema, outSchema)
		}
	}
	f.Host = readHostFacts()
	key := opt.workload
	if opt.trace {
		key += "+trace"
	}
	f.Workloads[key] = outEntry{
		Seed:      fmt.Sprintf("%x", opt.seed),
		Smoke:     opt.smoke,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   res.metrics,
	}
	b, err = json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(opt.out, append(b, '\n'), 0o644)
}
