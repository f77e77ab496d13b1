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

	c, _ := New(cfg, newGen())
	var pre, post, prevDelta retrySnap
	fpArmed, prevValid := false, false
	check := func(from, to int64, kind string) {
		for t2 := from; t2 < to; t2++ {
			if r, ok := rec[t2]; ok && (r.progressed || r.retry) {
				t.Fatalf("%s-skipped span [%d,%d) covers active cycle %d (progressed=%v retry=%v): missing wake-up source",
					kind, from, to, t2, r.progressed, r.retry)
			}
		}
	}
	// Mirror Run's skip loop so each span can be validated.
	for c.stats.Committed < commits {
		if fpArmed {
			c.captureRetry(&pre)
		}
		c.Step()
		switch {
		case c.progressed:
			fpArmed, prevValid = false, false
		case !c.retryBlocked:
			from := c.now
			c.skipAhead()
			check(from, c.now, "inert")
			fpArmed, prevValid = false, false
		case fpArmed:
			c.captureRetry(&post)
			delta := post.sub(&pre)
			if prevValid && delta == prevDelta && delta.replicable() {
				from := c.now
				if c.retrySkip(&delta) {
					fpArmed, prevValid = false, false
				}
				// Retry-skipped cycles must all have been retry
				// cycles in the reference (not progress).
				for t2 := from; t2 < c.now; t2++ {
					if r, ok := rec[t2]; ok && r.progressed {
						t.Fatalf("retry-skipped span [%d,%d) covers progress cycle %d", from, c.now, t2)
					}
				}
			} else {
				prevDelta, prevValid = delta, true
			}
		default:
			fpArmed = true
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
