package main

import (
	"fmt"
	"math/rand"

	"repro/internal/serve"
)

// settings sizes one run. full is what the benchmark measures; smoke
// shrinks every axis so the end-to-end test finishes in seconds.
type settings struct {
	warmup, measure int64 // µops per cell, exact tier
	warmJobs        int   // cached jobs per run (p95 needs 200: 10 beyond)
	diskJobs        int   // first jobs after a restart over the disk tier
	minReps         int   // repetitions per run, at least
	setups          int   // set-up timings per repetition (median reported)
}

var (
	full  = settings{warmup: 100_000, measure: 500_000, warmJobs: 200, diskJobs: 30, minReps: 3, setups: 20}
	smoke = settings{warmup: 2_000, measure: 8_000, warmJobs: 5, diskJobs: 2, minReps: 3, setups: 2}
)

// workloadDef is one named workload: the job spec its sweeps run.
type workloadDef struct {
	name string
	spec func(s settings) serve.JobSpec
}

var allModes = []string{"OoO", "RA", "RA-buffer", "PRE", "PRE+EMQ"}

// workloads lists the benchmark's workloads. Their names are part of the
// benchmark's interface: results files and later changes cite them.
var workloads = []workloadDef{
	{
		// The paper's core comparison. The core pipeline and the runahead
		// machinery do the work and prefetch code never runs, so the
		// RA-mode gap shows here and a prefetch change must not.
		name: "suite-ra",
		spec: func(s settings) serve.JobSpec {
			return serve.JobSpec{
				Name:       "suite-ra",
				Workloads:  []string{"mcf", "milc", "omnetpp", "soplex", "lbm", "libquantum"},
				Modes:      allModes,
				WarmupUops: s.warmup, MeasureUops: s.measure,
			}
		},
	},
	{
		// The same core with prefetch engines, throttling and the
		// PRE-aware filter driving cache and MSHR traffic; no RA or
		// RA-buffer cell, so an RA-only change should not move it.
		name: "pf-grid",
		spec: func(s settings) serve.JobSpec {
			return serve.JobSpec{
				Name:      "pf-grid",
				Workloads: []string{"libquantum", "lbm", "milc", "mcf", "bwaves", "GemsFDTD"},
				Modes:     []string{"OoO", "PRE"},
				Points: []serve.PointSpec{
					{Name: "stride+bo", PrefetchVariant: "stride+bo"},
					{Name: "adaptive", PrefetchVariant: "adaptive"},
				},
				WarmupUops: s.warmup, MeasureUops: s.measure,
			}
		},
	},
}

// specFor builds the workload's job spec with its workload list in the
// order the seed draws. The order decides the plan's unique-run order, so
// which cells the pool runs side by side, and the document's cell order;
// every cell's result is the same under any order. Suite proxies are
// seeded by workload identity, so the seed changes nothing else.
func (w workloadDef) specFor(s settings, seed uint64) serve.JobSpec {
	spec := w.spec(s)
	ws := append([]string(nil), spec.Workloads...)
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	spec.Workloads = ws
	return spec
}

func workloadByName(name string) (workloadDef, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}
