// Population sweeps: a Matrix whose workload axis is sampled from the
// stochastic scenario engine (internal/workload/synth) instead of — or in
// addition to — the fixed suite proxies. The expansion derives seeds at
// the workload level (synth.NthSeed): scenario i's seed depends only on the
// population identity, never on modes or configuration points, so every
// mechanism simulates the identical µop stream and the cross-mechanism
// differential invariants keep holding over sampled populations.
package exp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/workload/synth"
)

// Population declares a sampled workload axis.
type Population struct {
	// Space is the scenario distribution to sample from.
	Space synth.Space
	// Count is the number of seeded scenarios.
	Count int
	// BaseSeed roots the scenario seed sequence (synth.NthSeed); zero
	// selects the date-pinned synth.DefaultBaseSeed.
	BaseSeed uint64
}

// expand samples the population's scenarios in seed order.
func (pop Population) expand() ([]workload.Workload, []*synth.Params, error) {
	if pop.Count <= 0 {
		return nil, nil, fmt.Errorf("exp: population with non-positive count %d", pop.Count)
	}
	if err := pop.Space.Validate(); err != nil {
		return nil, nil, fmt.Errorf("exp: population space: %w", err)
	}
	base := pop.baseSeed()
	ws := make([]workload.Workload, 0, pop.Count)
	ps := make([]*synth.Params, 0, pop.Count)
	for i := 0; i < pop.Count; i++ {
		sc, err := pop.Space.Sample(synth.NthSeed(base, i))
		if err != nil {
			return nil, nil, fmt.Errorf("exp: population scenario %d: %w", i, err)
		}
		params := sc.Params
		ws = append(ws, sc.Workload())
		ps = append(ps, &params)
	}
	return ws, ps, nil
}

// baseSeed returns the effective base seed (BaseSeed or the default).
func (pop Population) baseSeed() uint64 {
	if pop.BaseSeed == 0 {
		return synth.DefaultBaseSeed
	}
	return pop.BaseSeed
}

// PopulationStat summarizes one mode's per-seed speedup distribution at
// one configuration point — the population answer to "how robust is this
// mechanism", where a single fixed suite only gives an anecdote.
type PopulationStat struct {
	// Mode is the summarized mechanism.
	Mode core.Mode
	// Count is the number of scenarios with a usable baseline and a
	// well-defined (positive, finite) speedup.
	Count int
	// Degenerate counts scenarios that had a baseline but produced a
	// non-positive or NaN speedup — typically a sampled seed whose
	// baseline commits essentially nothing inside the measurement
	// window. They are excluded from Min/Median/GeoMean instead of
	// panicking the aggregation.
	Degenerate int
	// Min, Median and GeoMean describe the speedup distribution over the
	// population.
	Min, Median, GeoMean float64
	// WorstSeed names the scenario (workload name, "s<seed>") with the
	// minimum speedup — the first place to look when a mechanism's tail
	// collapses.
	WorstSeed string
}

// SeedSpeedups returns one mode's per-scenario speedups at a point, in
// population order (only population workloads; empty without one).
func (s *Set) SeedSpeedups(pi, mi int) []float64 {
	var xs []float64
	for wi := range s.plan.workloads {
		if s.plan.synth[wi] == nil {
			continue
		}
		xs = append(xs, s.Speedup(pi, wi, mi))
	}
	return xs
}

// PopulationStats summarizes every mode's speedup distribution over the
// point's population scenarios. It returns nil when the plan has no
// population or the scenarios have no baselines.
func (s *Set) PopulationStats(pi int) []PopulationStat {
	out := make([]PopulationStat, 0, len(s.plan.m.Modes))
	for mi, mode := range s.plan.m.Modes {
		st := PopulationStat{Mode: mode}
		var xs []float64
		for wi := range s.plan.workloads {
			if s.plan.synth[wi] == nil {
				continue
			}
			if _, ok := s.Baseline(pi, wi); !ok {
				continue
			}
			sp := s.Speedup(pi, wi, mi)
			if sp <= 0 || math.IsNaN(sp) || math.IsInf(sp, 0) {
				st.Degenerate++
				continue
			}
			xs = append(xs, sp)
			if st.Count == 0 || sp < st.Min {
				st.Min = sp
				st.WorstSeed = s.plan.workloads[wi].Name
			}
			st.Count++
		}
		if st.Count == 0 && st.Degenerate == 0 {
			continue
		}
		st.Median = stats.Median(xs)
		st.GeoMean = stats.GeoMean(xs)
		out = append(out, st)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
