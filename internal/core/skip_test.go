package core

import (
	"reflect"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/workload/synth"
)

// skipTestCases pairs each mechanism with a memory-bound workload whose
// stall pattern exercises both skip mechanisms (inert spans and steady
// retry spans). The PF-augmented cases matter independently: hardware
// prefetchers add L2/L3 MSHR pressure (deep-level blocking probes run
// ahead of `now` by the hit-latency leads) and train prediction tables
// on traffic that is later rejected — both are wake-up/guard sources the
// skipper must honor.
var skipTestCases = []struct {
	wl   string
	mode Mode
	pf   string // prefetch variant name ("" = none)
}{
	{"libquantum", ModeOoO, ""},
	{"mcf", ModeOoO, ""},
	{"omnetpp", ModeRA, ""},
	{"milc", ModeRABuffer, ""},
	{"lbm", ModePRE, ""},
	{"milc", ModePREEMQ, ""},
	{"lbm", ModePREEMQ, "best-offset"},
	{"libquantum", ModeOoO, "stride+bo"},
	// The adaptive layer: throttled degrees change on feedback epochs
	// (training-guarded), the PRE-aware filter probes MSHR/line sources,
	// and lbm's deep stencil misses keep runahead fills in flight when
	// the HW engines drain — the interference case the filter exists for.
	{"lbm", ModePRE, "adaptive"},
	{"milc", ModePRE, "filtered"},
}

// TestCycleSkipLockstep is the strongest skip-correctness check: a
// reference core is stepped one cycle at a time, recording which cycles
// made progress or retried; a second core runs with skipping enabled, and
// every span it skips is checked against the reference — covering an
// active reference cycle means a wake-up source is missing from
// wakeBound/retrySkip. At the end, the complete statistics of both cores
// (pipeline, caches, DRAM, front end, runahead structures, rename) must
// be identical.
func TestCycleSkipLockstep(t *testing.T) {
	for _, tc := range skipTestCases {
		tc := tc
		name := tc.wl + "/" + tc.mode.String()
		if tc.pf != "" {
			name += "+" + tc.pf
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := workload.ByName(tc.wl)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Default(tc.mode)
			if tc.pf != "" {
				v, err := prefetch.VariantByName(tc.pf)
				if err != nil {
					t.Fatal(err)
				}
				cfg.ApplyPrefetch(v)
			}
			lockstepCompare(t, cfg, w.New)
		})
	}
}

// TestCycleSkipLockstepSynth extends the lockstep contract to the
// stochastic scenario engine: a sampled multi-phase scenario (date-pinned
// seed, the same population the CI scenario-fuzz gate draws from) must
// skip without covering a single active reference cycle. Phase switches
// are exactly the discontinuities a stale wake-up bound would mishandle.
func TestCycleSkipLockstepSynth(t *testing.T) {
	sc, err := synth.DefaultSpace().Sample(synth.NthSeed(synth.DefaultBaseSeed, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Every mode, because each one feeds dispatch from its own µop source
	// and a sampled scenario's phase switch can land mid-episode. RA-buffer
	// matters independently: its replay engine scans far ahead of the
	// stalled window with the front end power-gated, so the replay cursor
	// crosses the phase boundary (a ClassJump kills the chain) in ways the
	// fixed suite proxies never schedule.
	for _, mode := range Modes() {
		mode := mode
		t.Run(sc.Name()+"/"+mode.String(), func(t *testing.T) {
			t.Parallel()
			lockstepCompare(t, Default(mode), sc.NewGenerator)
		})
	}

	// Front-end-bound scenario under the full adaptive PF stack: the L1I
	// engine trains and drains on the fetch path, so fetch-side retry
	// spans now have prefetch wake-up/guard sources too.
	fe, err := synth.FrontEndSpace().Sample(synth.NthSeed(synth.DefaultBaseSeed, 0))
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := prefetch.VariantByName("adaptive")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeOoO, ModePRE} {
		mode := mode
		t.Run(fe.Name()+"/frontend/"+mode.String()+"+adaptive", func(t *testing.T) {
			t.Parallel()
			cfg := Default(mode)
			cfg.ApplyPrefetch(adaptive)
			lockstepCompare(t, cfg, fe.NewGenerator)
		})
	}
}

// lockstepCompare runs the reference (skip-disabled) core cycle by cycle,
// then validates every span a skipping core jumps over, and finally
// requires all reported statistics to be identical.
func lockstepCompare(t *testing.T, cfg Config, newGen func() trace.Generator) {
	const commits = 25_000
	ref, _ := New(cfg, newGen())
	ref.DisableCycleSkip = true
	type cyc struct{ progressed, retry bool }
	rec := map[int64]cyc{}
	for ref.stats.Committed < commits+1000 {
		ref.Step()
		rec[ref.now-1] = cyc{ref.progressed, ref.retryBlocked}
	}

	// Run's own skip method, so each span it skips can be validated.
	c, _ := New(cfg, newGen())
	var p retryProof
	for c.stats.Committed < commits {
		from, retry := c.skipStep(&p)
		for t2 := from; t2 < c.now; t2++ {
			// An inert span may cover only idle reference cycles; a retry
			// span may also cover retry cycles, but never progress.
			if r := rec[t2]; r.progressed || (r.retry && !retry) {
				t.Fatalf("skipped span [%d,%d) (retry=%v) covers active cycle %d (progressed=%v retry=%v): missing wake-up source",
					from, c.now, retry, t2, r.progressed, r.retry)
			}
		}
	}
	if c.stats.SkippedAhead == 0 {
		t.Error("cycle skipping never engaged on a memory-bound workload")
	}

	// Drive the reference to the same committed count, then compare
	// every statistic the simulator reports.
	refC, _ := New(cfg, newGen())
	refC.DisableCycleSkip = true
	refC.Run(c.stats.Committed)

	skipped := c.stats.SkippedAhead
	c.stats.SkippedAhead = 0 // the only counter allowed to differ
	if !reflect.DeepEqual(*refC.stats, *c.stats) {
		t.Errorf("core stats diverge:\n  ref:  %+v\n  skip: %+v", *refC.stats, *c.stats)
	}
	c.stats.SkippedAhead = skipped
	if refC.now != c.now {
		t.Errorf("cycle count diverges: ref %d, skip %d", refC.now, c.now)
	}
	type pair struct {
		name      string
		ref, skip interface{}
	}
	for _, p := range []pair{
		{"L1I", refC.hier.L1I().Stats(), c.hier.L1I().Stats()},
		{"L1D", refC.hier.L1D().Stats(), c.hier.L1D().Stats()},
		{"L2", refC.hier.L2().Stats(), c.hier.L2().Stats()},
		{"L3", refC.hier.L3().Stats(), c.hier.L3().Stats()},
		{"DRAM", refC.hier.DRAM().Stats(), c.hier.DRAM().Stats()},
		{"fetch", refC.fetch.Stats(), c.fetch.Stats()},
		{"SST", refC.sst.Stats(), c.sst.Stats()},
		{"PRDQ", refC.prdq.Stats(), c.prdq.Stats()},
		{"EMQ", refC.emq.Stats(), c.emq.Stats()},
		{"rename", refC.ren.Stats(), c.ren.Stats()},
	} {
		if !reflect.DeepEqual(p.ref, p.skip) {
			t.Errorf("%s stats diverge:\n  ref:  %+v\n  skip: %+v", p.name, p.ref, p.skip)
		}
	}
}

// TestCycleSkipEngagement pins that skipping actually pays: on the
// memory-bound suite representatives the skipped fraction of simulated
// cycles must be substantial under the stall-heavy baseline.
func TestCycleSkipEngagement(t *testing.T) {
	w, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(Default(ModeOoO), w.New())
	c.Run(100_000)
	s := c.Stats()
	if frac := float64(s.SkippedAhead) / float64(s.Cycles); frac < 0.5 {
		t.Errorf("mcf/OoO skipped only %.0f%% of cycles (want >= 50%%): event-driven skipping regressed", 100*frac)
	}
}

// TestRetryTableAliasesLiveCounters pins the retry counter table to the
// counters the simulator reports. After a warmup and ResetStats, every
// table entry must read exactly the matching public counter: an entry
// bound to the wrong field, to a copy, or to a block that ResetStats
// replaces instead of zeroing in place reads something else.
func TestRetryTableAliasesLiveCounters(t *testing.T) {
	w, err := workload.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default(ModePRE)
	v, err := prefetch.VariantByName("stride+bo") // trains, so PFObserves moves
	if err != nil {
		t.Fatal(err)
	}
	cfg.ApplyPrefetch(v)
	c, _ := New(cfg, w.New())
	c.Run(5_000)
	c.ResetStats()
	c.Run(20_000)

	var got retrySnap
	c.captureRetry(&got)
	st, fe, sst, h := c.Stats(), c.FetchUnit().Stats(), c.sst.Stats(), c.Hierarchy()
	l1i, l1d, l2, l3 := h.L1I().Stats(), h.L1D().Stats(), h.L2().Stats(), h.L3().Stats()
	dr := h.DRAM().Stats()
	want := retrySnap{
		st.Cycles, st.RunaheadCycles, st.FullWindowStallCycles, st.RobFullEvents,
		fe.FreezeCycles, fe.ICacheStallCy,
		sst.Lookups, sst.Hits,
		l1i.Accesses, l1i.Misses, l1i.MSHRStalls,
		l1d.Accesses, l1d.Misses, l1d.MSHRStalls,
		l2.Accesses, l2.Misses, l2.MSHRStalls,
		l3.Accesses, l3.Misses, l3.MSHRStalls,

		st.Decoded, st.Dispatched, st.Renamed, st.Committed, st.Completed, st.PseudoRetired,
		fe.FetchedUops, sst.Inserts, dr.Reads, dr.Writes, *h.PFObserves(),
		l1i.Hits, l1d.Hits, l2.Hits, l3.Hits,
	}
	if st.Cycles >= c.Now() || st.Committed == 0 || sst.Lookups == 0 || dr.Reads == 0 || *h.PFObserves() == 0 {
		t.Fatalf("window did not exercise the counters: cycles %d of %d, committed %d, SST lookups %d, DRAM reads %d, PF observes %d",
			st.Cycles, c.Now(), st.Committed, sst.Lookups, dr.Reads, *h.PFObserves())
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("retry table entry %d reads %d, the reported counter is %d", i, got[i], want[i])
		}
	}
}
