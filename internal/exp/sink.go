// Structured results sink: a schema-versioned JSON document of every
// matrix cell, emitted in expansion order so identical plans serialize to
// identical bytes at any worker count.
package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload/synth"
)

// SchemaVersion identifies the results-document layout. Bump it on any
// field change so downstream consumers can reject documents they do not
// understand.
//
// v2: sim.Result gained the per-level hit breakdown and the
// hardware-prefetcher counters/metrics; the sink gained the sibling
// metadata document (RunMeta).
//
// v3: population sweeps — cells carry the sampled synth scenario
// parameters ("synth", reconstructible via synth.FromParams), and the
// document gains the "population" block (space, count, base seed,
// per-point speedup-distribution stats).
//
// v4: the adaptive prefetching layer — sim.Result gained
// HWPrefFilteredRA (requests the PRE-aware filter dropped as duplicates
// of in-flight runahead fills) and HWPrefOverflowed (requests lost to
// engine queue overflow); the issue counters now also sum the L1I
// fetch-stream engine when one is configured.
//
// v5: fidelity tiers — runs of the approximate fast-runahead tier carried
// tier accounting on sim.Result (all ",omitempty", so exact-tier documents
// are byte-identical to v4) and the meta document recorded the tier.
// Removing the tier left v5 documents unchanged; the meta lost "fidelity".
//
// v6: cells and baselines lost "seed", a per-run label no simulator read;
// the cell key (KeyVersion 2) is the run's identity.
const SchemaVersion = 6

// RunMeta records how a Set was produced: wall-clock, requested and
// effective pool width, and GOMAXPROCS. It is deliberately a SEPARATE
// document from the results (WriteFile emits "<name>.meta.json" beside
// "<name>.json"): wall-clock varies run to run, while the results
// document is contractually byte-identical at any worker count. Anything
// excluded from that contract lives here.
type RunMeta struct {
	// Schema is SchemaVersion at write time.
	Schema int `json:"schema"`
	// Name is the experiment label from Matrix.Name.
	Name string `json:"name,omitempty"`
	// WallClockSeconds is the duration of Plan.Run.
	WallClockSeconds float64 `json:"wall_clock_seconds"`
	// Workers is the requested pool width (0 = one per CPU).
	Workers int `json:"workers"`
	// EffectiveWorkers is the pool width actually used (bounded by the
	// unique-run count).
	EffectiveWorkers int `json:"effective_workers"`
	// GOMAXPROCS is the scheduler width at run time.
	GOMAXPROCS int `json:"gomaxprocs"`
	// UniqueRuns and TotalCells mirror the results document, so the meta
	// file is interpretable on its own (runs/second etc.).
	UniqueRuns int `json:"unique_runs"`
	TotalCells int `json:"total_cells"`
	// CacheHits counts unique runs satisfied by RunOptions.Lookup instead
	// of a fresh simulation (0 without a cache). It lives in the meta
	// document because hit counts vary with cache state while the results
	// document stays byte-identical hot or cold.
	CacheHits int `json:"cache_hits,omitempty"`
	// CellSeconds* summarize the per-unique-run wall-clock distribution;
	// Total is the serial-equivalent cost of the sweep.
	CellSecondsMin    float64 `json:"cell_seconds_min"`
	CellSecondsMedian float64 `json:"cell_seconds_median"`
	CellSecondsMax    float64 `json:"cell_seconds_max"`
	CellSecondsTotal  float64 `json:"cell_seconds_total"`
	// WorkerUtilization is CellSecondsTotal / (WallClockSeconds x
	// EffectiveWorkers): the fraction of the pool's capacity spent inside
	// simulations. Values well below 1 mean stragglers or an over-wide
	// pool.
	WorkerUtilization float64 `json:"worker_utilization"`
}

// Document is the serialized form of a completed experiment.
type Document struct {
	// Schema is SchemaVersion at write time.
	Schema int `json:"schema"`
	// Name is the experiment label from Matrix.Name.
	Name string `json:"name,omitempty"`
	// WarmupUops and MeasureUops record the simulation window.
	WarmupUops  int64 `json:"warmup_uops"`
	MeasureUops int64 `json:"measure_uops"`
	// Workloads, Modes and Points record the matrix axes in order.
	Workloads []string `json:"workloads"`
	Modes     []string `json:"modes"`
	Points    []string `json:"points"`
	// Baseline is the speedup denominator mode.
	Baseline string `json:"baseline"`
	// UniqueRuns counts deduplicated simulations; TotalCells counts
	// matrix cells. The gap is work saved by shared-baseline caching.
	UniqueRuns int `json:"unique_runs"`
	TotalCells int `json:"total_cells"`
	// Summary holds per-point geomean speedups, indexed [point][mode].
	Summary [][]float64 `json:"summary_geomean_speedups"`
	// Population describes the sampled workload axis, when the matrix had
	// one: the full sampling space (so the artifact alone reproduces the
	// population) and the per-point speedup-distribution summaries.
	Population *PopulationDoc `json:"population,omitempty"`
	// Baselines lists the implicit baseline runs per (point, workload)
	// when the baseline mode is not a matrix axis (AddBaseline sweeps);
	// when it is, the baselines already appear in Cells. Recording them
	// keeps the document self-describing: baseline IPC is recoverable
	// without rerunning.
	Baselines []Cell `json:"baselines,omitempty"`
	// Cells lists every matrix cell in expansion order (point-major,
	// then workload, then mode).
	Cells []Cell `json:"cells"`
}

// Cell is one matrix cell's serialized result.
type Cell struct {
	Point    string `json:"point"`
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
	// Shared marks cells whose simulation was deduplicated into another
	// cell's (or a baseline's) run.
	Shared bool `json:"shared"`
	// Speedup is IPC normalized to the (point, workload) baseline; 0
	// when the plan has no baseline.
	Speedup float64 `json:"speedup"`
	// Synth records the sampled scenario parameters for population
	// workloads (nil for fixed workloads): a failing seed is reproducible
	// from the artifact alone via synth.FromParams.
	Synth *synth.Params `json:"synth,omitempty"`
	// Result is the full simulation outcome.
	Result sim.Result `json:"result"`
}

// PopulationDoc is the serialized population block.
type PopulationDoc struct {
	// Space is the full sampling space.
	Space synth.Space `json:"space"`
	// Count is the number of sampled scenarios.
	Count int `json:"count"`
	// BaseSeed roots the scenario seed sequence (hex).
	BaseSeed string `json:"base_seed"`
	// Stats holds the per-point, per-mode speedup-distribution summaries
	// (indexed [point], modes in matrix order; omitted without baselines).
	Stats [][]PopulationStatDoc `json:"stats,omitempty"`
}

// PopulationStatDoc is one mode's serialized speedup-distribution summary.
type PopulationStatDoc struct {
	Mode      string  `json:"mode"`
	Count     int     `json:"count"`
	Min       float64 `json:"min"`
	Median    float64 `json:"median"`
	GeoMean   float64 `json:"geomean"`
	WorstSeed string  `json:"worst_seed"`
}

// Document builds the serializable form of the result set.
func (s *Set) Document() *Document {
	p := s.plan
	doc := &Document{
		Schema:      SchemaVersion,
		Name:        p.m.Name,
		WarmupUops:  p.m.Options.WarmupUops,
		MeasureUops: p.m.Options.MeasureUops,
		Baseline:    p.m.Baseline.String(),
		UniqueRuns:  p.NumUnique(),
		TotalCells:  p.NumCells(),
	}
	for _, w := range p.workloads {
		doc.Workloads = append(doc.Workloads, w.Name)
	}
	for _, m := range p.m.Modes {
		doc.Modes = append(doc.Modes, m.String())
	}
	doc.Points = p.Points()
	if p.m.Population != nil {
		pop := &PopulationDoc{
			Space:    p.m.Population.Space,
			Count:    p.m.Population.Count,
			BaseSeed: fmt.Sprintf("%016x", p.m.Population.baseSeed()),
		}
		for pi := range p.points {
			ps := s.PopulationStats(pi)
			if ps == nil {
				pop.Stats = nil
				break
			}
			row := make([]PopulationStatDoc, len(ps))
			for i, st := range ps {
				row[i] = PopulationStatDoc{
					Mode: st.Mode.String(), Count: st.Count,
					Min: st.Min, Median: st.Median, GeoMean: st.GeoMean,
					WorstSeed: st.WorstSeed,
				}
			}
			pop.Stats = append(pop.Stats, row)
		}
		doc.Population = pop
	}

	baselineInModes := false
	for _, m := range p.m.Modes {
		if m == p.m.Baseline {
			baselineInModes = true
		}
	}

	firstCellOf := make(map[int]bool) // unique index -> already serialized
	cell := 0
	for pi, pt := range p.points {
		doc.Summary = append(doc.Summary, s.GeoMeanSpeedups(pi))
		for wi := range p.workloads {
			for mi, mode := range p.m.Modes {
				ui := p.cells[cell]
				shared := firstCellOf[ui]
				firstCellOf[ui] = true
				doc.Cells = append(doc.Cells, Cell{
					Point:    pt.Name,
					Workload: p.workloads[wi].Name,
					Mode:     mode.String(),
					Shared:   shared,
					Speedup:  s.Speedup(pi, wi, mi),
					Synth:    p.synth[wi],
					Result:   s.res[ui],
				})
				cell++
			}
			if !baselineInModes {
				if ui := p.base[pi*len(p.workloads)+wi]; ui >= 0 {
					shared := firstCellOf[ui]
					firstCellOf[ui] = true
					doc.Baselines = append(doc.Baselines, Cell{
						Point:    pt.Name,
						Workload: p.workloads[wi].Name,
						Mode:     p.m.Baseline.String(),
						Shared:   shared,
						Speedup:  1,
						Synth:    p.synth[wi],
						Result:   s.res[ui],
					})
				}
			}
		}
	}
	return doc
}

// WriteFile writes the results document to dir/name.json and the
// execution metadata to dir/name.meta.json, creating dir if needed — the
// shared sink path of every sweep frontend. Only the results document is
// covered by the byte-identical determinism contract; the meta file
// records the run's wall-clock and pool width and differs run to run.
func (s *Set) WriteFile(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".json"))
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(s.meta, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	return os.WriteFile(filepath.Join(dir, name+".meta.json"), b, 0o644)
}

// WriteTrace writes the set's merged Chrome-trace sidecar (one process
// group per unique run) to path. It errors when the set was produced
// without RunOptions.Trace. The sidecar is diagnostic output, outside the
// results document's byte-identical contract.
func (s *Set) WriteTrace(path string) error {
	if s.trace == nil {
		return fmt.Errorf("exp: set was run without trace recording")
	}
	return telemetry.WriteMergedFile(path, s.trace)
}

// WriteJSON serializes the result set. Output bytes depend only on the
// matrix, never on worker count or scheduling, which the orchestrator's
// determinism tests enforce.
func (s *Set) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s.Document(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
