// Populationsweep: the robustness question the fixed suite cannot answer
// — does PRE's advantage over a hardware prefetcher survive scenario
// diversity, or is it an artifact of five hand-picked kernels?
//
// Fifty scenarios are sampled from the default synth space (seeded,
// reproducible) and each runs under OoO and PRE, with and without the
// stride+best-offset prefetcher pair. The report is the per-seed speedup
// distribution per configuration: geomean for the headline, min and the
// worst seed for the tail. The expected picture: on stream-heavy seeds
// the prefetchers capture most of PRE's win (the PRE rows' min drops
// toward 1), while pointer-chasing and hash-walk seeds keep the gap open
// — the population says when runahead pays, not just whether.
package main

import (
	"fmt"
	"log"
	"os"

	presim "repro"
	"repro/internal/exp"
)

func main() {
	// no-pf and the combined stride+bo variant: the two ends of the
	// prefetching axis.
	spec := presim.JobSpec{
		Name:  "populationsweep",
		Modes: []string{presim.ModeOoO.String(), presim.ModePRE.String()},
		Points: []presim.JobPoint{
			{Name: "no-pf", PrefetchVariant: "no-pf"},
			{Name: "stride+bo", PrefetchVariant: "stride+bo"},
		},
		Population:  &presim.JobPopulation{SpaceName: "default", Count: 50},
		WarmupUops:  20_000,
		MeasureUops: 60_000,
	}
	set, err := spec.Run(exp.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	plan := set.Plan()
	fmt.Printf("50-seed population x {OoO, PRE} x {no-pf, stride+bo}: %d unique runs\n\n",
		plan.NumUnique())

	names := plan.Points()
	stats := make([][]presim.PopulationStat, len(names))
	for pi := range names {
		stats[pi] = set.PopulationStats(pi)
	}
	presim.PopulationGridTable(names, stats).Write(os.Stdout)

	// How often does PRE still add speedup on top of the prefetchers?
	pre := set.SeedSpeedups(1, 1) // stride+bo point, PRE mode
	wins := 0
	for _, s := range pre {
		if s > 1.01 {
			wins++
		}
	}
	fmt.Printf("\nPRE beats the stride+bo prefetchers by >1%% on %d/%d seeds.\n", wins, len(pre))

	// The worst seed is fully described by its sampled parameters (a
	// -json sweep records them per cell; presim.SynthFromParams rebuilds
	// the scenario from them alone).
	for _, st := range stats[1] {
		if st.Mode != presim.ModePRE {
			continue
		}
		fmt.Printf("Worst PRE seed under stride+bo: %s (%.3fx), sampled as:\n", st.WorstSeed, st.Min)
		for wi, w := range plan.Workloads() {
			if w.Name != st.WorstSeed {
				continue
			}
			for _, ph := range plan.SynthParams(wi).Phases {
				fmt.Printf("  %-8s lanes %d, %d µops/phase\n", ph.Archetype, ph.Lanes, ph.Uops)
			}
		}
	}
}
