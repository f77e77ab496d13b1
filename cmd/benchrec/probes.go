package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/runahead"
	"repro/internal/serve"
	"repro/internal/serve/cache"
	"repro/internal/uarch"
	"repro/internal/workload"
)

// The probes time direct calls into each package's public functions,
// from outside, on the workload's own programs. Each repeats its batch a
// few times and reports the median.
const (
	probeBatches     = 3
	genProbeUops     = 200_000 // µops drawn per program for the generator and memory probes
	chainProbeWindow = 192     // µops in the chain-extraction window (one ROB)
	chainProbeCalls  = 5_000
)

// program is one workload the probes drive, under its spec's first
// configuration point.
type program struct {
	w     workload.Workload
	apply func(*core.Config)
}

// programs returns the spec's suite proxies as probe programs.
func programs(spec serve.JobSpec) ([]program, error) {
	m, err := spec.Matrix()
	if err != nil {
		return nil, err
	}
	p, err := m.Expand()
	if err != nil {
		return nil, err
	}
	var apply func(*core.Config)
	if len(m.Points) > 0 {
		apply = m.Points[0].Apply
	}
	var out []program
	for _, w := range p.Workloads() {
		out = append(out, program{w, apply})
	}
	return out, nil
}

func (p program) config(mode core.Mode) core.Config {
	cfg := core.Default(mode)
	if p.apply != nil {
		p.apply(&cfg)
	}
	cfg.Mode = mode
	return cfg
}

// coreProbe drives core.New, Run, ResetStats and Run on every program
// under every mode, serially, timing only the measured window's Run.
//
//sim:wallclock probe timings are host measurements printed by the benchmark, never fed into a simulation
func coreProbe(progs []program, s settings, out metrics) error {
	var fetched, committed int64
	for _, name := range allModes {
		mode, err := core.ParseMode(name)
		if err != nil {
			return err
		}
		var dt time.Duration
		var st core.Stats
		for _, p := range progs {
			c, err := core.New(p.config(mode), p.w.New())
			if err != nil {
				return fmt.Errorf("core probe %s/%s: %w", p.w.Name, name, err)
			}
			c.Run(s.warmup)
			c.ResetStats()
			start := time.Now()
			c.Run(s.measure)
			dt += time.Since(start)
			cs := c.Stats()
			st.Cycles += cs.Cycles
			st.Committed += cs.Committed
			st.Dispatched += cs.Dispatched
			st.SkippedAhead += cs.SkippedAhead
			st.RunaheadCycles += cs.RunaheadCycles
			st.RunaheadExecuted += cs.RunaheadExecuted
			fetched += c.FetchUnit().Stats().FetchedUops
		}
		committed += st.Committed
		n, cyc := float64(st.Committed), float64(st.Cycles)
		sfx := modeSuffix[name]
		out.set("core.ns_per_uop."+sfx, float64(dt.Nanoseconds())/n)
		out.set("core.dispatch_per_commit."+sfx, float64(st.Dispatched)/n)
		out.set("core.skip_pct."+sfx, 100*float64(st.SkippedAhead)/cyc)
		out.set("core.cycles_per_uop."+sfx, cyc/n)
		if mode != core.ModeOoO {
			out.set("runahead.cycles_pct."+sfx, 100*float64(st.RunaheadCycles)/cyc)
			out.set("runahead.executed_per_commit."+sfx, float64(st.RunaheadExecuted)/n)
		}
	}
	out.set("frontend.fetched_per_commit", float64(fetched)/float64(committed))
	return nil
}

// perCall runs fn, which makes calls calls, and returns the cost of one
// call in the given unit.
//
//sim:wallclock probe timings are host measurements printed by the benchmark, never fed into a simulation
func perCall(calls int, unit time.Duration, fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start)) / float64(unit) / float64(calls)
}

// batches runs perCall probeBatches times.
func batches(calls int, unit time.Duration, fn func()) []float64 {
	xs := make([]float64, probeBatches)
	for i := range xs {
		xs[i] = perCall(calls, unit, fn)
	}
	return xs
}

// genProbe calls Generator.Next directly on fresh generators.
func genProbe(progs []program, out metrics) {
	var u uarch.Uop
	out.median("workload.gen_ns_per_uop", batches(len(progs)*genProbeUops, time.Nanosecond, func() {
		for _, p := range progs {
			g := p.w.New()
			for i := 0; i < genProbeUops; i++ {
				g.Next(&u)
			}
		}
	}))
}

// chainProbe times ChainExtractor.Extract on one ROB-sized milc window,
// stalled on the window's oldest load.
func chainProbe(out metrics) error {
	w, err := workload.ByName("milc")
	if err != nil {
		return err
	}
	window := workload.Drain(w.New(), 4*chainProbeWindow)[3*chainProbeWindow:]
	var stallPC uint64
	for i := range window {
		if window[i].IsLoad() {
			stallPC = window[i].PC
			break
		}
	}
	var x runahead.ChainExtractor
	out.median("runahead.chain_extract_ns", batches(chainProbeCalls, time.Nanosecond, func() {
		for i := 0; i < chainProbeCalls; i++ {
			x.Extract(window, stallPC, core.Default(core.ModeRABuffer).ChainMaxLen)
		}
	}))
	return nil
}

// memProbe feeds the programs' demand-load streams through LoadPC on a
// standalone hierarchy, without and with the adaptive prefetcher point.
// Loads issue one per cycle; a load that finds the MSHRs exhausted
// retries at the next MSHR release.
func memProbe(progs []program, out metrics) error {
	type load struct{ addr, pc uint64 }
	var loads []load
	for _, p := range progs {
		for _, u := range workload.Drain(p.w.New(), genProbeUops) {
			if u.IsLoad() {
				loads = append(loads, load{u.Addr, u.PC})
			}
		}
	}
	adaptive, err := prefetch.VariantByName("adaptive")
	if err != nil {
		return err
	}
	for _, pt := range []struct {
		name    string
		variant *prefetch.Variant
	}{{"mem.load_ns.nopf", nil}, {"mem.load_ns.adaptive", &adaptive}} {
		cfg := core.Default(core.ModeOoO)
		if pt.variant != nil {
			cfg.ApplyPrefetch(*pt.variant)
		}
		out.median(pt.name, batches(len(loads), time.Nanosecond, func() {
			h := mem.New(cfg.Mem)
			var now int64
			for _, l := range loads {
				for {
					if _, ok := h.LoadPC(l.addr, l.pc, now); ok {
						break
					}
					next, ok := h.NextMSHRRelease(now)
					if !ok || next <= now {
						next = now + 1
					}
					now = next
				}
				now++
			}
		}))
	}
	return nil
}

// cacheProbe times direct cache.Put, memory-tier Get and disk-tier Get
// on the workload's cell keys and results, each batch in a fresh
// directory.
func cacheProbe(runs []keyed, newDir func() string, out metrics) error {
	var put, get, disk []float64
	for b := 0; b < probeBatches; b++ {
		dir := newDir()
		c, err := cache.New(cacheEntries, dir)
		if err != nil {
			return err
		}
		put = append(put, perCall(len(runs), time.Microsecond, func() {
			for _, k := range runs {
				c.Put(k.key, k.res)
			}
		}))
		get = append(get, perCall(len(runs), time.Microsecond, func() {
			for _, k := range runs {
				c.Get(k.key)
			}
		}))
		// A second cache over the same directory starts with an empty
		// memory tier, so every Get reads and verifies a file.
		cold, err := cache.New(cacheEntries, dir)
		if err != nil {
			return err
		}
		disk = append(disk, perCall(len(runs), time.Microsecond, func() {
			for _, k := range runs {
				if _, ok := cold.Get(k.key); !ok {
					err = fmt.Errorf("cache probe: disk tier lost %s", k.key.Hash())
				}
			}
		}))
		if err != nil {
			return err
		}
	}
	out.median("serve.cache.put_us", put)
	out.median("serve.cache.get_us", get)
	out.median("serve.cache.disk_get_us", disk)
	return nil
}
