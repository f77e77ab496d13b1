// The wire job spec: a fully declarative, JSON-encodable description
// of one experiment matrix. exp.Matrix itself carries function hooks
// (Point.Apply, Options.Configure) and so cannot cross a socket; JobSpec
// is the closed-world equivalent — named suite workloads, named modes,
// named prefetch variants, a whitelisted knob table, and a synth
// population — that both the server and presim.Client share, so the CLI,
// the examples, and remote users all speak one API.
package serve

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/workload/synth"
)

// JobSpec declares one experiment: the cross-product of Points x
// (Workloads + Population) x Modes under one measurement window. It maps
// 1:1 onto exp.Matrix; everything here is plain data.
type JobSpec struct {
	// Name labels the job in results documents and logs.
	Name string `json:"name,omitempty"`
	// Workloads names fixed suite proxies ("mcf", "libquantum", ...).
	// Either Workloads or Population (or both) must be present.
	Workloads []string `json:"workloads,omitempty"`
	// Modes names the mechanisms to simulate ("OoO", "RA", "RA-buffer",
	// "PRE", "PRE+EMQ"). Required.
	Modes []string `json:"modes"`
	// Points are the configuration points; empty means a single default
	// point.
	Points []PointSpec `json:"points,omitempty"`
	// Population adds a sampled synthetic workload axis.
	Population *PopulationSpec `json:"population,omitempty"`
	// WarmupUops and MeasureUops set the simulation window. MeasureUops
	// is required (> 0); WarmupUops defaults to 0.
	WarmupUops  int64 `json:"warmup_uops,omitempty"`
	MeasureUops int64 `json:"measure_uops"`
	// Baseline names the speedup denominator mode (default "OoO").
	Baseline string `json:"baseline,omitempty"`
	// AddBaseline forces a baseline run per (point, workload) even when
	// Baseline is not in Modes.
	AddBaseline bool `json:"add_baseline,omitempty"`
}

// PointSpec is one declarative configuration point: an optional named
// hardware-prefetcher variant plus whitelisted integer knob overrides,
// applied in that order.
type PointSpec struct {
	// Name labels the point ("sst=256", "adaptive"); required.
	Name string `json:"name"`
	// PrefetchVariant names a standard PF grid point ("no-pf", "stride",
	// "best-offset", "adaptive", ...); empty applies no variant.
	PrefetchVariant string `json:"prefetch_variant,omitempty"`
	// Knobs are whitelisted configuration overrides by name (see
	// KnobNames): {"sst_size": 256}. Unknown names are rejected at
	// submission, not deep inside the run.
	Knobs map[string]int64 `json:"knobs,omitempty"`
}

// PopulationSpec declares a sampled scenario axis.
type PopulationSpec struct {
	// SpaceName selects a named sampling space ("default", "frontend");
	// mutually exclusive with Space.
	SpaceName string `json:"space_name,omitempty"`
	// Space is an explicit sampling space, for populations beyond the
	// named ones.
	Space *synth.Space `json:"space,omitempty"`
	// Count is the number of seeded scenarios; required (> 0).
	Count int `json:"count"`
	// BaseSeed roots the scenario seed sequence, in hex; empty selects
	// the date-pinned default.
	BaseSeed string `json:"base_seed,omitempty"`
}

// maxKnobValue and maxPopulationCount bound what a spec may ask for. Knob
// values size simulator structures and the population count sizes
// Expand's scenario tables, so an unbounded value is an unbounded
// allocation, and Go cannot recover from running out of memory. Every
// published sweep stays far below both (the largest is 4096).
const (
	maxKnobValue       = 1 << 16
	maxPopulationCount = 1 << 16
)

// knobSetters is the closed set of remotely settable configuration
// knobs, and the only way a job spec overrides a configuration, so a
// spec can never construct an un-vetted one. The catalogue's experiments
// use sst_size (A1), emq_size (A2), min_runahead_cycles (A3), l1d_mshrs
// (the MSHR sweep) and free_exit (E6); the other five are the remaining
// runahead structure sizes and limits, for ablations a remote submitter
// declares.
var knobSetters = map[string]func(*core.Config, int64){
	"sst_size":            func(c *core.Config, v int64) { c.SSTSize = int(v) },
	"emq_size":            func(c *core.Config, v int64) { c.EMQSize = int(v) },
	"prdq_size":           func(c *core.Config, v int64) { c.PRDQSize = int(v) },
	"runahead_width":      func(c *core.Config, v int64) { c.RunaheadWidth = int(v) },
	"min_runahead_cycles": func(c *core.Config, v int64) { c.MinRunaheadCycles = v },
	"chain_max_len":       func(c *core.Config, v int64) { c.ChainMaxLen = int(v) },
	"replay_lookahead":    func(c *core.Config, v int64) { c.ReplayLookahead = v },
	"pre_max_divergence":  func(c *core.Config, v int64) { c.PREMaxDivergence = int(v) },
	"l1d_mshrs":           func(c *core.Config, v int64) { c.Mem.L1D.MSHRs = int(v) },
	// E6 is an ablation of RA only; the other modes of its matrix keep
	// a flushing exit and so share the flush-exit point's runs.
	"free_exit": func(c *core.Config, v int64) { c.FreeExit = v != 0 && c.Mode == core.ModeRA },
}

// KnobNames lists the remotely settable knob names, sorted.
func KnobNames() []string {
	names := make([]string, 0, len(knobSetters))
	for n := range knobSetters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Matrix validates the spec and builds the executable exp.Matrix.
// Validation errors name the offending field so a remote submitter can
// fix the spec without reading server logs.
func (s JobSpec) Matrix() (exp.Matrix, error) {
	var m exp.Matrix
	m.Name = s.Name
	if len(s.Modes) == 0 {
		return m, fmt.Errorf("spec: modes is required")
	}
	for _, name := range s.Modes {
		mode, err := core.ParseMode(name)
		if err != nil {
			return m, fmt.Errorf("spec: modes: %w", err)
		}
		m.Modes = append(m.Modes, mode)
	}
	for _, name := range s.Workloads {
		w, err := workload.ByName(name)
		if err != nil {
			return m, fmt.Errorf("spec: workloads: %w", err)
		}
		m.Workloads = append(m.Workloads, w)
	}
	for _, pt := range s.Points {
		p, err := pt.point()
		if err != nil {
			return m, err
		}
		m.Points = append(m.Points, p)
	}
	if s.Population != nil {
		pop, err := s.Population.population()
		if err != nil {
			return m, err
		}
		m.Population = pop
	}
	if len(m.Workloads) == 0 && m.Population == nil {
		return m, fmt.Errorf("spec: needs workloads, a population, or both")
	}
	if s.MeasureUops <= 0 {
		return m, fmt.Errorf("spec: measure_uops must be positive (got %d)", s.MeasureUops)
	}
	if s.WarmupUops < 0 {
		return m, fmt.Errorf("spec: warmup_uops must be non-negative (got %d)", s.WarmupUops)
	}
	m.Options = sim.Options{WarmupUops: s.WarmupUops, MeasureUops: s.MeasureUops}
	if s.Baseline != "" {
		base, err := core.ParseMode(s.Baseline)
		if err != nil {
			return m, fmt.Errorf("spec: baseline: %w", err)
		}
		m.Baseline = base
	}
	m.AddBaseline = s.AddBaseline
	return m, nil
}

// Run runs the spec on this machine. The results document it writes is
// byte-identical to what a server returns for the same spec.
func (s JobSpec) Run(opts exp.RunOptions) (*exp.Set, error) {
	m, err := s.Matrix()
	if err != nil {
		return nil, err
	}
	plan, err := m.Expand()
	if err != nil {
		return nil, err
	}
	return plan.RunOpts(opts)
}

// point compiles one declarative point into an exp.Point whose Apply
// closure replays the variant and knobs deterministically (knobs in
// sorted name order, so the applied configuration never depends on map
// iteration).
func (pt PointSpec) point() (exp.Point, error) {
	if pt.Name == "" {
		return exp.Point{}, fmt.Errorf("spec: point with empty name")
	}
	var variant *prefetch.Variant
	if pt.PrefetchVariant != "" {
		v, err := prefetch.VariantByName(pt.PrefetchVariant)
		if err != nil {
			return exp.Point{}, fmt.Errorf("spec: point %q: %w", pt.Name, err)
		}
		variant = &v
	}
	type knob struct {
		set func(*core.Config, int64)
		v   int64
	}
	names := make([]string, 0, len(pt.Knobs))
	for name := range pt.Knobs {
		if knobSetters[name] == nil {
			return exp.Point{}, fmt.Errorf("spec: point %q: unknown knob %q (known: %v)",
				pt.Name, name, KnobNames())
		}
		if v := pt.Knobs[name]; v < 0 || v > maxKnobValue {
			return exp.Point{}, fmt.Errorf("spec: point %q: knob %q must be in [0, %d] (got %d)",
				pt.Name, name, maxKnobValue, v)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	knobs := make([]knob, len(names))
	for i, name := range names {
		knobs[i] = knob{set: knobSetters[name], v: pt.Knobs[name]}
	}
	return exp.Point{
		Name: pt.Name,
		Apply: func(c *core.Config) {
			if variant != nil {
				c.ApplyPrefetch(*variant)
			}
			for _, k := range knobs {
				k.set(c, k.v)
			}
		},
	}, nil
}

// population compiles the population spec, resolving named spaces.
func (ps PopulationSpec) population() (*exp.Population, error) {
	pop := &exp.Population{Count: ps.Count}
	switch {
	case ps.Space != nil && ps.SpaceName != "":
		return nil, fmt.Errorf("spec: population: space and space_name are mutually exclusive")
	case ps.Space != nil:
		pop.Space = *ps.Space
	case ps.SpaceName == "" || ps.SpaceName == "default":
		pop.Space = synth.DefaultSpace()
	case ps.SpaceName == "frontend":
		pop.Space = synth.FrontEndSpace()
	default:
		return nil, fmt.Errorf("spec: population: unknown space_name %q (known: default, frontend)", ps.SpaceName)
	}
	if ps.Count <= 0 || ps.Count > maxPopulationCount {
		return nil, fmt.Errorf("spec: population: count must be in [1, %d] (got %d)", maxPopulationCount, ps.Count)
	}
	if ps.BaseSeed != "" {
		seed, err := strconv.ParseUint(ps.BaseSeed, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("spec: population: base_seed must be hex: %w", err)
		}
		pop.BaseSeed = seed
	}
	return pop, nil
}
