package presim

import (
	"repro/internal/exp"
	"repro/internal/serve"
)

// Sweeps as a service (internal/serve): cmd/simd is a long-running
// HTTP/JSON simulation server with a content-addressed result cache, and
// Client is its programmatic API. A JobSpec is the declarative,
// JSON-encodable equivalent of an Experiment — named workloads, named
// modes, named prefetch variants, whitelisted knobs, a synth population —
// and a finished job's results document is byte-identical to what a
// local run of the same matrix writes, whether the cells were simulated
// fresh or served from cache.
type (
	// Client talks to a simulation server (cmd/simd):
	// Submit/Events/Result/Cancel/Stats/Wait.
	Client = serve.Client
	// JobSpec declares one remote experiment matrix.
	JobSpec = serve.JobSpec
	// JobPoint is one declarative configuration point of a JobSpec
	// (prefetch variant + whitelisted knobs).
	JobPoint = serve.PointSpec
	// JobPopulation declares a JobSpec's sampled synth-scenario axis.
	JobPopulation = serve.PopulationSpec
	// JobStatus is the polled view of a submitted job.
	JobStatus = serve.JobStatus
	// JobEvent is one line of a job's NDJSON event stream.
	JobEvent = serve.Event
	// ServerStats is the server-wide queue/cache/timing snapshot.
	ServerStats = serve.Stats
)

// NewClient returns a Client for the simulation server at baseURL.
func NewClient(baseURL string) *Client { return serve.NewClient(baseURL) }

// CatalogExperiment is one published experiment of the paper's
// evaluation, declared as a JobSpec without a window (README's
// experiment index lists them).
type CatalogExperiment = serve.Experiment

// Catalog returns every published experiment in evaluation order.
func Catalog() []CatalogExperiment { return serve.Catalog() }

// CatalogEntry returns the published experiment with the given ID.
func CatalogEntry(id string) (CatalogExperiment, error) { return serve.CatalogEntry(id) }

// CellKey is the content address of one simulation: the canonical,
// versioned identity (workload + synth params + window + per-mode
// config) under which the serve-layer cache stores results.
type CellKey = exp.CellKey
