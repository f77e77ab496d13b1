// The experiment catalogue: every published experiment of the paper's
// evaluation, declared once as a job spec. cmd/sweep, cmd/figures and
// the root benchmarks take their matrices from here, so a local run and
// a -server submission of the same experiment are the same spec.
package serve

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/workload"
)

// Experiment is one catalogue entry. Its Spec carries no window: callers
// set WarmupUops and MeasureUops, and for a population its Count (and,
// optionally, BaseSeed).
type Experiment struct {
	// ID names the experiment, its spec and its results document
	// ("a1_sst" writes a1_sst.json).
	ID string
	// Section is the paper section the experiment reproduces, or
	// "extension" for experiments beyond the paper.
	Section string
	// Title says what the experiment measures.
	Title string
	Spec  JobSpec
}

// Catalog returns every published experiment in evaluation order. Each
// call builds fresh specs, so a caller may edit what it gets.
func Catalog() []Experiment {
	suite := workload.Names()
	var modes []string
	for _, m := range core.Modes() {
		modes = append(modes, m.String())
	}
	var variants []PointSpec
	for _, v := range prefetch.Variants() {
		variants = append(variants, PointSpec{Name: v.Name, PrefetchVariant: v.Name})
	}
	// sweep is one knob swept over the suite under one mode, against the
	// OoO baseline.
	sweep := func(mode core.Mode, knob string, values ...int64) JobSpec {
		spec := JobSpec{Workloads: suite, Modes: []string{mode.String()}, AddBaseline: true}
		for _, v := range values {
			spec.Points = append(spec.Points, PointSpec{
				Name: strconv.FormatInt(v, 10), Knobs: map[string]int64{knob: v}})
		}
		return spec
	}
	cat := []Experiment{
		{"figures", "§2.4, §3.4, §5", "Fig. 2 speedup, Fig. 3 energy, E4 refill penalty, E5 short intervals, E7 free resources and E9 invocations: every mechanism over the suite",
			JobSpec{Workloads: suite, Modes: modes}},
		{"e6_free_exit", "§2.4", "E6: RA speedup with a zero-cost exit against the flushing exit",
			JobSpec{Workloads: suite, Modes: []string{core.ModeOoO.String(), core.ModeRA.String()},
				Points: []PointSpec{{Name: "flush-exit"}, {Name: "free-exit", Knobs: map[string]int64{"free_exit": 1}}}}},
		{"a1_sst", "§3.6", "A1: SST entries (PRE speedup over OoO)",
			sweep(core.ModePRE, "sst_size", 16, 32, 64, 128, 256, 512, 1024)},
		{"a2_emq", "§3.6", "A2: EMQ entries (PRE+EMQ speedup over OoO)",
			sweep(core.ModePREEMQ, "emq_size", 192, 384, 768, 1152, 1536)},
		{"a3_rathreshold", "§2.4", "A3: RA minimum-interval filter, cycles (RA speedup over OoO)",
			sweep(core.ModeRA, "min_runahead_cycles", 0, 20, 40, 64, 100, 150)},
		{"mshr", "extension", "MSHR budget: L1D outstanding misses (PRE speedup over OoO)",
			sweep(core.ModePRE, "l1d_mshrs", 8, 16, 32, 64)},
		{"pf_grid", "extension", "PF grid: mechanisms x hardware prefetchers (speedup over per-variant OoO)",
			JobSpec{Workloads: suite, Modes: modes, Points: variants}},
		{"synth_population", "extension", "Synth population: seeded scenarios x all mechanisms (speedup over OoO)",
			JobSpec{Modes: modes, Population: &PopulationSpec{SpaceName: "default"}}},
	}
	for i := range cat {
		cat[i].Spec.Name = cat[i].ID
	}
	return cat
}

// CatalogEntry returns the catalogue experiment with the given ID.
func CatalogEntry(id string) (Experiment, error) {
	for _, e := range Catalog() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("serve: no catalogue experiment %q", id)
}
