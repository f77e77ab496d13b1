// Package presim is a cycle-level reproduction of "Precise Runahead
// Execution" (Naithani, Feliu, Adileh, Eeckhout — IEEE CAL 2019 /
// HPCA 2020) as a reusable Go library.
//
// It provides:
//
//   - a cycle-stepped out-of-order core model with the paper's Table 1
//     configuration (192-entry ROB, 92-entry IQ, Haswell-style register
//     files, gshare front-end, three-level cache hierarchy, DDR3-1600
//     bank/row timing);
//   - four runahead mechanisms on top of that core: traditional runahead
//     (RA), the runahead buffer (RA-buffer), precise runahead execution
//     (PRE) with its Stalling Slice Table and Precise Register
//     Deallocation Queue, and PRE with the Extended Micro-op Queue
//     (PRE+EMQ);
//   - a synthetic proxy for the paper's memory-intensive SPEC CPU2006
//     workloads, plus archetype constructors for building custom
//     workloads;
//   - an activity-based energy model (the McPAT/CACTI stand-in); and
//   - a harness that regenerates the paper's figures and in-text
//     measurements.
//
// Quick start:
//
//	w, _ := presim.WorkloadByName("libquantum")
//	base, _ := presim.Run(w, presim.ModeOoO, presim.DefaultOptions())
//	pre, _ := presim.Run(w, presim.ModePRE, presim.DefaultOptions())
//	fmt.Printf("PRE speedup: %.2fx\n", pre.Speedup(base))
package presim

import (
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/prefetch"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/workload/synth"
)

// Mode selects the runahead mechanism.
type Mode = core.Mode

// The evaluated mechanisms (paper Section 5).
const (
	// ModeOoO is the out-of-order baseline.
	ModeOoO = core.ModeOoO
	// ModeRA is traditional runahead execution.
	ModeRA = core.ModeRA
	// ModeRABuffer is filtered runahead with a runahead buffer.
	ModeRABuffer = core.ModeRABuffer
	// ModePRE is precise runahead execution.
	ModePRE = core.ModePRE
	// ModePREEMQ is PRE with the extended micro-op queue.
	ModePREEMQ = core.ModePREEMQ
)

// Modes lists all mechanisms in evaluation order.
func Modes() []Mode { return core.Modes() }

// ParseMode resolves a mechanism name ("OoO", "RA", "RA-buffer", "PRE",
// "PRE+EMQ").
func ParseMode(s string) (Mode, error) { return core.ParseMode(s) }

// Config is the full core configuration (see core.Config for every knob).
type Config = core.Config

// DefaultConfig returns the paper's Table 1 configuration for a mode.
func DefaultConfig(mode Mode) Config { return core.Default(mode) }

// Options controls warmup/measurement windows and configuration hooks.
type Options = sim.Options

// DefaultOptions returns the standard harness window.
func DefaultOptions() Options { return sim.DefaultOptions() }

// Result is the flattened outcome of one simulation run.
type Result = sim.Result

// Workload names a benchmark proxy and builds fresh generators for it.
type Workload = workload.Workload

// Workloads returns the 13 memory-intensive SPEC CPU2006 proxies.
func Workloads() []Workload { return workload.Suite() }

// WorkloadByName looks up a suite workload ("mcf", "libquantum", ...).
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// WorkloadNames lists the suite in report order.
func WorkloadNames() []string { return workload.Names() }

// Generator produces a deterministic µop stream (for custom workloads).
type Generator = trace.Generator

// Archetype parameters for building custom workloads with the same
// machinery as the suite proxies.
type (
	// StreamParams configures strided streaming walks.
	StreamParams = workload.StreamParams
	// PtrChaseParams configures dependent pointer chains.
	PtrChaseParams = workload.PtrChaseParams
	// IndirectParams configures A[col[i]] indirection.
	IndirectParams = workload.IndirectParams
	// StencilParams configures multi-plane stencils.
	StencilParams = workload.StencilParams
	// HashWalkParams configures hash/graph walks with dependent loads.
	HashWalkParams = workload.HashWalkParams
)

// Archetype constructors.
var (
	// NewStream builds a streaming generator.
	NewStream = workload.NewStream
	// NewPtrChase builds a pointer-chasing generator.
	NewPtrChase = workload.NewPtrChase
	// NewIndirect builds an indirection generator.
	NewIndirect = workload.NewIndirect
	// NewStencil builds a stencil generator.
	NewStencil = workload.NewStencil
	// NewHashWalk builds a hash-walk generator.
	NewHashWalk = workload.NewHashWalk
)

// CustomWorkload wraps a generator constructor as a runnable workload.
func CustomWorkload(name string, newGen func() Generator) Workload {
	return Workload{Name: name, Class: "custom", Chains: 1, New: newGen}
}

// Run simulates one workload under one mechanism.
func Run(w Workload, mode Mode, opt Options) (Result, error) {
	return sim.Run(w, mode, opt)
}

// RunMatrix simulates every (workload, mode) pair in parallel, returning
// results indexed [workload][mode]. It is a one-point Experiment: the
// same dedup, worker pool and per-cell panic recovery.
func RunMatrix(ws []Workload, modes []Mode, opt Options) ([][]Result, error) {
	plan, err := Experiment{Workloads: ws, Modes: modes, Options: opt}.Expand()
	if err != nil {
		return nil, err
	}
	set, err := plan.Run(0)
	if err != nil {
		return nil, err
	}
	return set.Grid(0), nil
}

// Observability (internal/telemetry): point Options.Trace at a
// TraceRecorder and the run records a cycle-level event timeline of its
// measured window — runahead episode spans, full-window stall spans,
// cycle-skip jumps, prefetch trains, throttle decisions — plus a named
// metrics snapshot, serialized as Chrome trace_event JSON that Perfetto
// (https://ui.perfetto.dev) opens directly. Tracing is sidecar-only: the
// Result and every byte of results JSON are identical with it on or off.
type (
	// TraceRecorder captures one run's event timeline and metrics.
	TraceRecorder = telemetry.Recorder
	// MetricsRegistry is the named-metric snapshot a traced run publishes
	// (counters, gauges and histograms under hierarchical names like
	// "core/runahead/entries" or "pf/l1d/accuracy").
	MetricsRegistry = telemetry.Registry
)

// NewTraceRecorder builds a recorder whose trace is labeled name
// (conventionally "workload/mode"). Write the sidecar with its WriteFile
// after the run.
func NewTraceRecorder(name string) *TraceRecorder { return telemetry.NewRecorder(name) }

// Hardware prefetching (internal/prefetch): pluggable prefetch engines
// beside the L1D and L2. Any runahead mode composes with any prefetcher
// variant, which is how the PF-augmented simulation configurations
// (OoO+PF, PRE+PF, ...) are expressed.
type (
	// PrefetchConfig configures one hardware prefetcher instance.
	PrefetchConfig = prefetch.Config
	// PrefetchVariant is a named (L1D, L2) prefetcher pairing — one point
	// of the PF grid.
	PrefetchVariant = prefetch.Variant
)

// PrefetchVariants lists the standard PF grid points: the open-loop
// no-pf / stride (L1D) / best-offset (L2) / stride+bo quartet plus the
// adaptive points — l1i-nl (L1I fetch-stream next-line), throttled
// (accuracy-driven degree control), filtered (the PRE-aware duplicate
// filter) and adaptive (all three combined).
func PrefetchVariants() []PrefetchVariant { return prefetch.Variants() }

// PrefetchVariantByName looks up a standard PF grid point.
func PrefetchVariantByName(name string) (PrefetchVariant, error) {
	return prefetch.VariantByName(name)
}

// Stochastic scenario engine (internal/workload/synth): seed-driven
// workload populations sampled from a parameterized distribution, the
// scale-out complement to the fixed 13-proxy suite.
type (
	// SynthSpace describes a scenario distribution (archetype mix,
	// footprint, MLP, phase structure).
	SynthSpace = synth.Space
	// SynthRange is an inclusive integer sampling interval.
	SynthRange = synth.Range
	// SynthWeights is the archetype mix of a SynthSpace.
	SynthWeights = synth.Weights
	// SynthParams is the fully-sampled description of one scenario, as
	// recorded per run in population results JSON.
	SynthParams = synth.Params
	// SynthScenario is a materialized sample (params + generator).
	SynthScenario = synth.Scenario
)

// SynthDefaultBaseSeed is the date-pinned base seed population sweeps and
// the CI scenario-fuzz gate default to.
const SynthDefaultBaseSeed = synth.DefaultBaseSeed

// DefaultSynthSpace returns the standard scenario distribution.
func DefaultSynthSpace() SynthSpace { return synth.DefaultSpace() }

// FrontEndSynthSpace returns the front-end-bound scenario distribution:
// codewalk-heavy populations whose instruction footprints thrash the L1I
// — the population the L1I fetch-stream prefetcher targets.
func FrontEndSynthSpace() SynthSpace { return synth.FrontEndSpace() }

// SynthFromParams rebuilds a scenario from recorded parameters — the
// reproduce-a-failing-CI-seed path; see Cell.Synth in the results JSON.
func SynthFromParams(p SynthParams) (SynthScenario, error) { return synth.FromParams(p) }

// SynthNthSeed derives the i-th scenario seed of a population.
func SynthNthSeed(base uint64, i int) uint64 { return synth.NthSeed(base, i) }

// Population declares a sampled workload axis for an Experiment: Count
// scenarios drawn from Space (seeded by BaseSeed, default date-pinned).
type Population = exp.Population

// PopulationStat summarizes one mode's per-seed speedup distribution.
type PopulationStat = exp.PopulationStat

// PopulationGridTable renders per-point population-robustness stats (from
// an ExperimentSet's PopulationStats) as the min/median/geomean grid with
// worst-case-seed identification.
func PopulationGridTable(points []string, stats [][]PopulationStat) *Table {
	rows := make([][]report.PopulationRow, len(stats))
	for pi, ss := range stats {
		for _, st := range ss {
			rows[pi] = append(rows[pi], report.PopulationRow{
				Mode: st.Mode.String(), Count: st.Count,
				Min: st.Min, Median: st.Median, GeoMean: st.GeoMean,
				WorstSeed: st.WorstSeed,
			})
		}
	}
	return report.PopulationGrid(points, rows)
}

// Experiment declares a (points x workloads x modes) design-space sweep
// for the parallel orchestrator: unique configurations are deduplicated
// (shared OoO baselines run once), sharded across the host's cores, and
// serialized deterministically — byte-identical results JSON at any
// worker count.
type Experiment = exp.Matrix

// ExperimentPoint is one named configuration override of an Experiment.
type ExperimentPoint = exp.Point

// ExperimentPlan is an expanded, deduplicated Experiment ready to run.
type ExperimentPlan = exp.Plan

// ExperimentSet holds a completed Experiment's results and aggregations.
type ExperimentSet = exp.Set

// ResultsSchemaVersion identifies the experiment results JSON layout.
const ResultsSchemaVersion = exp.SchemaVersion

// Table is an aligned text/CSV table.
type Table = report.Table

// Fig2Table renders Figure 2 (performance normalized to OoO).
func Fig2Table(results [][]Result, modes []Mode) *Table { return report.Fig2(results, modes) }

// Fig3Table renders Figure 3 (energy savings relative to OoO).
func Fig3Table(results [][]Result, modes []Mode) *Table { return report.Fig3(results, modes) }

// RunaheadDetailTable renders the per-mechanism diagnostics table.
func RunaheadDetailTable(results [][]Result, modes []Mode) *Table {
	return report.RunaheadDetail(results, modes)
}

// PFGridTable renders the PRE-vs-prefetch-vs-combined grid: per-variant,
// per-mode geomean speedups (from an ExperimentSet's Points and
// GeoMeanSpeedups).
func PFGridTable(points []string, modes []Mode, summary [][]float64) *Table {
	return report.PFGrid(points, modes, summary)
}

// PrefetchDetailTable renders the per-workload hardware-prefetcher
// diagnostics (issue counts, accuracy, coverage, timeliness).
func PrefetchDetailTable(results [][]Result, modes []Mode) *Table {
	return report.PrefetchDetail(results, modes)
}

// PFInterferenceTable renders the runahead-vs-hardware-prefetch
// interference diagnostics: per workload and mechanism, the HW engines'
// issued/redundant/filtered-RA/dropped/overflowed counts beside the
// runahead prefetch count. filtered-RA is the interference term the
// PRE-aware filter measures directly.
func PFInterferenceTable(results [][]Result, modes []Mode) *Table {
	return report.PFInterference(results, modes)
}

// AverageSpeedups returns per-mode geometric-mean speedups over OoO.
func AverageSpeedups(results [][]Result, modes []Mode) []float64 {
	return report.AverageSpeedups(results, modes)
}

// AverageEnergySavings returns per-mode mean energy savings over OoO.
func AverageEnergySavings(results [][]Result, modes []Mode) []float64 {
	return report.AverageEnergySavings(results, modes)
}
