// Prefetchsweep: cross the runahead mechanisms with the hardware
// prefetcher variants on a few structurally different workloads — the
// "is runahead still worth it once you have a prefetcher?" question the
// paper's related-work section raises.
//
// The grid shows the expected interaction: a stride prefetcher captures
// most of what runahead prefetches on regular streams (so PRE's edge
// shrinks), while on data-dependent access patterns (hashwalk) the
// prefetchers are nearly blind and PRE keeps its full advantage.
package main

import (
	"fmt"
	"log"
	"os"

	presim "repro"
	"repro/internal/exp"
)

func main() {
	// The catalogue's PF grid, narrowed to four workloads and to OoO and
	// PRE.
	e, err := presim.CatalogEntry("pf_grid")
	if err != nil {
		log.Fatal(err)
	}
	spec := e.Spec
	spec.Workloads = []string{"libquantum", "milc", "GemsFDTD", "omnetpp"}
	modes := []presim.Mode{presim.ModeOoO, presim.ModePRE}
	spec.Modes = []string{modes[0].String(), modes[1].String()}
	spec.WarmupUops, spec.MeasureUops = presim.DefaultOptions().WarmupUops, 100_000
	set, err := spec.Run(exp.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	plan := set.Plan()

	points := plan.Points()
	summary := make([][]float64, len(points))
	for pi := range points {
		summary[pi] = set.GeoMeanSpeedups(pi)
	}
	presim.PFGridTable(points, modes, summary).Write(os.Stdout)

	fmt.Println()
	fmt.Println("Per-workload PRE speedup over the same-variant OoO baseline:")
	fmt.Printf("%-12s", "benchmark")
	for _, p := range points {
		fmt.Printf("  %12s", p)
	}
	fmt.Println()
	for wi, w := range plan.Workloads() {
		fmt.Printf("%-12s", w.Name)
		for pi := range points {
			fmt.Printf("  %11.3fx", set.Speedup(pi, wi, 1))
		}
		fmt.Println()
	}

	fmt.Println()
	fmt.Printf("Prefetcher quality under PRE (%s variant):\n", points[len(points)-1])
	last := len(points) - 1
	for wi, w := range plan.Workloads() {
		r := set.Result(last, wi, 1)
		if r.HWPrefIssued == 0 {
			continue
		}
		fmt.Printf("  %-12s accuracy %3.0f%%  coverage %3.0f%%  timeliness %3.0f%%  (%d issued, %d useful)\n",
			w.Name, 100*r.HWPFAccuracy, 100*r.HWPFCoverage, 100*r.HWPFTimeliness,
			r.HWPrefIssued, r.HWPrefUseful)
	}
}
