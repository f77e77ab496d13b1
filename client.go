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

// JobKnobNames lists the configuration knobs a JobSpec may set, sorted.
func JobKnobNames() []string { return serve.KnobNames() }

// CellKey is the content address of one simulation: the canonical,
// versioned identity (workload + synth params + window + energy model +
// per-mode config) under which the serve-layer cache stores results.
type CellKey = exp.CellKey
