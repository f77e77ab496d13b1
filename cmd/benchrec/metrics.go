package main

import (
	"fmt"
	"math"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in print order. Every
// workload reports every one. A repetition is one local sweep (expand +
// simulate + encode); the job_* metrics time the workload's document
// served back from the result cache.
var endToEnd = []metricDef{
	{"sim_uops_per_s", "uops/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"job_warm_p50_ms", "ms"},
	{"job_disk_warm_ms", "ms"},
}

// modeSuffix names each mechanism in metric names.
var modeSuffix = map[string]string{
	"OoO": "OoO", "RA": "RA", "RA-buffer": "RAbuf", "PRE": "PRE", "PRE+EMQ": "PREEMQ",
}

// layers are the host-time layers a CPU profile folds into (see
// layerOf). "other" is what no rule matched; layer.coverage_pct is its
// complement.
var layers = []string{
	"frontend", "rename",
	"core.dispatch", "core.issue", "core.complete", "core.commit", "core.skip", "core.other",
	"runahead", "cache", "mem", "dram", "prefetch", "workload",
	"exp", "serve", "serialization", "go-runtime", "other",
}

// perLayer lists the metrics of a traced run, in print order.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit string) { defs = append(defs, metricDef{name, unit}) }
	for _, m := range allModes {
		s := modeSuffix[m]
		add("core.ns_per_uop."+s, "ns/uop")
		add("core.dispatch_per_commit."+s, "uops/uop")
		add("core.skip_pct."+s, "%")
		add("core.cycles_per_uop."+s, "cycles/uop")
	}
	for _, m := range allModes[1:] {
		s := modeSuffix[m]
		add("runahead.cycles_pct."+s, "%")
		add("runahead.executed_per_commit."+s, "uops/uop")
	}
	add("runahead.chain_extract_ns", "ns")
	add("mem.load_ns.nopf", "ns")
	add("mem.load_ns.adaptive", "ns")
	add("mem.l1d_mpki", "1/kuop")
	add("mem.l3_mpki", "1/kuop")
	add("mem.dram_reads_pki", "1/kuop")
	add("prefetch.issued_pki", "1/kuop")
	add("prefetch.accuracy", "ratio")
	add("prefetch.filtered_ra_pki", "1/kuop")
	add("frontend.fetched_per_commit", "uops/uop")
	add("frontend.mispredicts_pki", "1/kuop")
	add("workload.gen_ns_per_uop", "ns/uop")
	add("exp.expand_ms", "ms")
	add("exp.encode_ms", "ms")
	add("exp.worker_utilization", "ratio")
	add("exp.cell_max_s", "s")
	add("exp.unique_runs", "count")
	add("serve.submit_ms", "ms")
	add("serve.wait_ms", "ms")
	add("serve.result_ms", "ms")
	add("serve.result_kb", "KB")
	add("serve.warm_p95_ms", "ms")
	add("serve.cache.get_us", "us")
	add("serve.cache.put_us", "us")
	add("serve.cache.disk_get_us", "us")
	add("serve.cache.hit_rate", "ratio")
	add("go.alloc_bytes_per_kuop", "B/kuop")
	add("go.gc_cycles", "count")
	for _, l := range layers {
		if l == "other" {
			continue
		}
		add("layer."+l+".self_pct", "%")
		add("layer."+l+".ns_per_uop", "ns/uop")
	}
	add("layer.coverage_pct", "%")
	add("trace.overhead_pct", "%")
	return defs
}

// metric is one reported value with the spread of the samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// metrics collects a run's values; finish attaches the units.
type metrics map[string]metric

// set records a single measured value.
func (m metrics) set(name string, v float64) { m.put(name, v, []float64{v}) }

// median records the median of repeated measurements.
func (m metrics) median(name string, xs []float64) { m.put(name, median(xs), xs) }

// put records v, estimated from the samples xs, with their spread.
func (m metrics) put(name string, v float64, xs []float64) {
	q1, q3 := quartiles(xs)
	m[name] = metric{Value: v, N: len(xs), Q1: q1, Q3: q3}
}

// finish checks that every metric in defs was measured and is finite,
// and attaches the units.
func (m metrics) finish(defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s: not measured", d.name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s: non-finite value %v", d.name, v.Value)
		}
		v.Unit = d.unit
		out[d.name] = v
	}
	return out, nil
}
