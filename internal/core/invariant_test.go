package core

import (
	"testing"

	"repro/internal/workload"
)

// TestCommitSequenceContinuity is the strongest end-to-end invariant in
// the suite: under EVERY mechanism, architectural commits must be exactly
// the dynamic instruction stream in order — seq 0, 1, 2, ... with no
// skips, duplicates or reordering — no matter how much speculative
// runahead work was executed, flushed, replayed or re-dispatched from the
// EMQ in between.
func TestCommitSequenceContinuity(t *testing.T) {
	for _, name := range []string{"libquantum", "mcf", "lbm", "milc"} {
		for _, mode := range Modes() {
			w, _ := workload.ByName(name)
			c := newCore(t, mode, w.New())
			next := int64(0)
			broken := false
			c.OnCommit = func(seq int64) {
				if seq != next && !broken {
					t.Errorf("%s/%v: committed seq %d, expected %d", name, mode, seq, next)
					broken = true
				}
				next = seq + 1
			}
			c.Run(25_000)
			if broken {
				return
			}
			if next < 25_000 {
				t.Errorf("%s/%v: only %d µops committed", name, mode, next)
			}
		}
	}
}

// TestRunaheadNeverCommits verifies the architectural contract of
// runahead mode: the commit counter only advances in normal mode.
func TestRunaheadNeverCommits(t *testing.T) {
	for _, mode := range []Mode{ModeRA, ModeRABuffer, ModePRE, ModePREEMQ} {
		w, _ := workload.ByName("milc")
		c := newCore(t, mode, w.New())
		c.Run(5_000)
		prevCommitted := c.Stats().Committed
		sawRunahead := false
		wasIn := c.InRunahead()
		for i := 0; i < 300_000; i++ {
			c.Step()
			// Only steps that both began and ended inside runahead are
			// fully runahead cycles (entry/exit cycles legitimately commit
			// in their normal-mode portion).
			if wasIn && c.InRunahead() {
				sawRunahead = true
				if c.Stats().Committed != prevCommitted {
					t.Fatalf("%v: committed %d µops during runahead",
						mode, c.Stats().Committed-prevCommitted)
				}
			}
			prevCommitted = c.Stats().Committed
			wasIn = c.InRunahead()
			if sawRunahead && !wasIn && i > 50_000 {
				break
			}
		}
		if !sawRunahead {
			t.Errorf("%v: no runahead observed on milc", mode)
		}
	}
}

// TestExitRestoresFreeLists verifies PRE's episode-neutrality: every
// runahead episode returns the register free lists to their entry state
// (the paper's wholesale RAT + free-list restore).
func TestExitRestoresFreeLists(t *testing.T) {
	w, _ := workload.ByName("libquantum")
	c := newCore(t, ModePRE, w.New())
	c.Run(5_000)
	checked := 0
	for i := 0; i < 500_000 && checked < 5; i++ {
		// Advance to an entry.
		for j := 0; j < 500_000 && !c.InRunahead(); j++ {
			c.Step()
		}
		if !c.InRunahead() {
			break
		}
		intAtEntry, fpAtEntry := c.ren.FreeCounts()
		// Runahead allocations may already be in flight when we observe
		// the entry state, and the entry cycle's commits freed registers
		// before the checkpoint was taken — so the restored exit state may
		// exceed the observation by at most one commit-width's worth, and
		// must never be BELOW it (that would be a leak into the episode).
		for c.InRunahead() {
			c.Step()
		}
		intAtExit, fpAtExit := c.ren.FreeCounts()
		if intAtExit < intAtEntry || fpAtExit < fpAtEntry {
			t.Fatalf("episode %d: registers leaked: (%d,%d) at entry vs (%d,%d) at exit",
				checked, intAtEntry, fpAtEntry, intAtExit, fpAtExit)
		}
		if intAtExit > intAtEntry+c.cfg.Width || fpAtExit > fpAtEntry+c.cfg.Width {
			t.Fatalf("episode %d: free lists over-restored: (%d,%d) -> (%d,%d)",
				checked, intAtEntry, fpAtEntry, intAtExit, fpAtExit)
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no episodes observed")
	}
}

// TestDivergenceStopsPrefetching verifies the INV-branch divergence rule:
// after an unresolvable mispredict in traditional runahead, no further
// prefetches are issued in that episode.
func TestDivergenceStopsPrefetching(t *testing.T) {
	// omnetpp's data-dependent branches read loaded (INV in runahead)
	// values and mispredict ~5% of the time.
	w, _ := workload.ByName("omnetpp")
	c := newCore(t, ModeRA, w.New())
	c.Run(40_000)
	if c.Stats().DivergenceStops == 0 {
		t.Error("omnetpp RA must hit unresolvable mispredicts")
	}
}

// TestWalkDelaysReplay verifies the runahead buffer pays its backward
// dataflow walk before the first replay µop dispatches.
func TestWalkDelaysReplay(t *testing.T) {
	w, _ := workload.ByName("libquantum")
	c := newCore(t, ModeRABuffer, w.New())
	c.Run(10_000)
	for i := 0; i < 500_000 && !c.InRunahead(); i++ {
		c.Step()
	}
	if !c.InRunahead() {
		t.Skip("no episode observed")
	}
	if c.replayStart <= c.entryCycle {
		t.Errorf("replay starts at %d, entry at %d: walk cost missing",
			c.replayStart, c.entryCycle)
	}
	if c.replayStart-c.entryCycle > int64(c.cfg.ROBSize)+8 {
		t.Errorf("walk cost %d exceeds one ROB scan", c.replayStart-c.entryCycle)
	}
}

// TestEMQDeferredEntry verifies that PRE+EMQ defers runahead entry until
// the EMQ has drained, and that the EMQ conserves µops: every buffered
// µop is re-dispatched exactly once, none is discarded at an exit or a
// re-entry. Statistics are never reset, so the counters cover the whole
// run.
func TestEMQDeferredEntry(t *testing.T) {
	for _, name := range []string{"milc", "libquantum", "mcf", "lbm"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, _ := workload.ByName(name)
			c := newCore(t, ModePREEMQ, w.New())
			for i := 0; i < 2_000_000 && c.stats.Entries < 300; i++ {
				entries, buffered := c.stats.Entries, c.emq.Len()
				c.Step()
				if c.stats.Entries > entries && buffered > 0 {
					t.Fatalf("cycle %d: entered runahead with %d µops still in the EMQ", c.now-1, buffered)
				}
				q := c.emq.Stats()
				if q.Pushes != c.stats.EMQDispatched+int64(c.emq.Len()) || q.Pops != c.stats.EMQDispatched {
					t.Fatalf("cycle %d: EMQ pushes %d, pops %d, buffered %d, re-dispatched %d",
						c.now-1, q.Pushes, q.Pops, c.emq.Len(), c.stats.EMQDispatched)
				}
			}
			if c.stats.Entries == 0 || c.stats.EMQDispatched == 0 {
				t.Fatalf("no EMQ traffic: %d entries, %d re-dispatched", c.stats.Entries, c.stats.EMQDispatched)
			}
		})
	}
}
