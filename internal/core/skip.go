package core

import "fmt"

// This file implements event-driven cycle skipping. Run calls skipStep
// once per cycle, and after a Step that made no progress it skips ahead.
//
// skipAhead jumps over provably inert cycles. But the dominant stall
// pattern on memory-bound workloads is not inert: a ready load (or store
// drain, or instruction fetch) retries a structurally blocked resource —
// usually exhausted MSHRs — every cycle, and each retry counts real
// statistics (cache accesses, misses, MSHR stalls). Those cycles cannot
// be elided, but they can be amortized: between wake-up events the
// machine's behavior is a constant function, so every retry cycle
// produces the *same* counter deltas. skipStep proves this empirically
// (two consecutive no-progress cycles with identical deltas and no
// state-changing activity) and then applies the per-cycle delta in bulk
// up to the next wake-up: the earliest completion event, runahead exit,
// replay start, fetch thaw / line arrival / decode readiness, occupied-
// MSHR release at any cache level, or divide-unit release. DRAM bank and
// bus times need no separate probe — the resource-reservation timing
// model bakes them into the fill-completion times the events and MSHRs
// already carry. The counters a retry cycle may touch are enumerated once,
// in the retry counter table (bindRetryCounters).
//
// The result is byte-identical to stepping every cycle (the differential
// tests pin this), at a small fraction of the host cost.

// retrySnap holds one value per retry counter table entry: counter values
// in a snapshot, per-cycle changes in a delta. The first retryReplicable
// entries are counters a steady retry cycle repeats; the rest are guards
// whose movement vetoes amortizing the span.
type retrySnap [retryReplicable + retryGuards]int64

const retryReplicable, retryGuards = 20, 15

// bindRetryCounters builds the retry counter table, c.retryCtrs. Every
// owner resets its counters in place, so the pointers stay valid across
// ResetStats. It panics if the table and retrySnap disagree.
func (c *Core) bindRetryCounters() {
	st, fe, sst, h := c.stats, c.fetch.Counters(), c.sst.Counters(), c.hier
	l1i, l1d, l2, l3 := h.L1I().Counters(), h.L1D().Counters(), h.L2().Counters(), h.L3().Counters()
	dr := h.DRAM().Counters()
	replicable := []*int64{
		&st.Cycles, &st.RunaheadCycles, &st.FullWindowStallCycles, &st.RobFullEvents,
		&fe.FreezeCycles, &fe.ICacheStallCy,
		&sst.Lookups, &sst.Hits, // a blocked PRE µop re-probes the SST every cycle
		&l1i.Accesses, &l1i.Misses, &l1i.MSHRStalls,
		&l1d.Accesses, &l1d.Misses, &l1d.MSHRStalls,
		&l2.Accesses, &l2.Misses, &l2.MSHRStalls,
		&l3.Accesses, &l3.Misses, &l3.MSHRStalls,
	}
	// Most guards imply c.progressed structurally and just double-check
	// the enumeration of retry-path side effects; a cache hit on any retry
	// path implies a success, i.e. progress. The prefetcher observations
	// are a real veto: the L2 prefetcher trains before the L2/L3 MSHR
	// rejection, so a blocked retry cycle can still mutate a prediction
	// table and must be re-executed, never replayed as a bulk delta.
	guards := []*int64{
		&st.Decoded, &st.Dispatched, &st.Renamed, &st.Committed, &st.Completed, &st.PseudoRetired,
		&fe.FetchedUops, &sst.Inserts, &dr.Reads, &dr.Writes, h.PFObserves(),
		&l1i.Hits, &l1d.Hits, &l2.Hits, &l3.Hits,
	}
	if len(replicable) != retryReplicable || len(guards) != retryGuards || replicable[0] != &st.Cycles {
		panic(fmt.Sprintf("core: retry counter table (%d+%d) does not match retrySnap", len(replicable), len(guards)))
	}
	copy(c.retryCtrs[:], replicable)
	copy(c.retryCtrs[retryReplicable:], guards)
}

// captureRetry snapshots the retry counter table.
//
//sim:hotpath
func (c *Core) captureRetry(s *retrySnap) {
	for i, p := range &c.retryCtrs {
		s[i] = *p
	}
}

// sub returns the componentwise difference s - o.
func (s *retrySnap) sub(o *retrySnap) retrySnap {
	var d retrySnap
	for i := range s {
		d[i] = s[i] - o[i]
	}
	return d
}

// replicable reports whether the delta describes a cycle safe to amortize:
// exactly one cycle elapsed and no guard counter moved.
func (d *retrySnap) replicable() bool {
	// Stats.Cycles leads the table.
	return d[0] == 1 && [retryGuards]int64(d[retryReplicable:]) == [retryGuards]int64{}
}

// applyRetryDelta accounts n repetitions of the per-cycle delta d.
//
//sim:hotpath
func (c *Core) applyRetryDelta(d *retrySnap, n int64) {
	for i, p := range c.retryCtrs[:retryReplicable] {
		*p += n * d[i]
	}
}

// retryProof carries a steady retry span's proof across skipStep calls.
type retryProof struct {
	pre, post, prevDelta retrySnap
	armed, prevValid     bool
}

// skipStep executes one cycle, then skips the inert or proven steady retry
// span that follows. It returns the skipped span's start (it ends at
// c.now) and whether it was a retry span.
//
//sim:hotpath
func (c *Core) skipStep(p *retryProof) (from int64, retry bool) {
	if p.armed {
		c.captureRetry(&p.pre)
	}
	c.Step()
	from = c.now
	switch {
	case c.DisableCycleSkip || c.progressed:
		p.armed, p.prevValid = false, false
	case !c.retryBlocked:
		c.skipAhead()
		p.armed, p.prevValid = false, false
	case p.armed:
		c.captureRetry(&p.post)
		delta := p.post.sub(&p.pre)
		if p.prevValid && delta == p.prevDelta && delta.replicable() {
			retry = true
			if c.retrySkip(&delta) {
				// State at the wake-up cycle may differ; re-prove.
				p.armed, p.prevValid = false, false
			}
			// A no-op retrySkip leaves the proven delta valid.
		} else {
			p.prevDelta, p.prevValid = delta, true
		}
	default:
		p.armed = true // start measuring deltas next cycle
	}
	return from, retry
}

const horizon = int64(^uint64(0) >> 1)

// wakeBound returns the earliest cycle at or after c.now at which the
// machine's behavior could change for a reason other than a structural
// retry: a completion event, runahead exit, replay start, fetch thaw or
// line arrival, or the decode pipe's head clearing. c.now is the next
// cycle to execute; a bound at or before it simply means "do not skip".
func (c *Core) wakeBound() int64 {
	bound := horizon
	if t, ok := c.events.nextAt(c.now); ok && t < bound {
		bound = t
	}
	if c.inRunahead {
		if c.exitCycle < bound {
			bound = c.exitCycle
		}
		if c.cfg.Mode == ModeRABuffer && !c.replayDead && c.replayStart >= c.now && c.replayStart < bound {
			bound = c.replayStart
		}
	}
	// Evaluated at the cycle just executed (c.now-1) so a thaw or line
	// arrival scheduled for exactly c.now still registers.
	if t, ok := c.fetch.NextWakeAt(c.now - 1); ok && t < bound {
		bound = t
	}
	if t, ok := c.fetch.HeadReadyAt(); ok && t >= c.now && t < bound {
		bound = t
	}
	return bound
}

// skipAhead advances c.now to the next wake-up after a provably inert
// Step, replicating in bulk the per-cycle counters the skipped cycles
// would have incremented: Cycles, RunaheadCycles, the full-window stall
// counters (the idle cycle just executed proves whether the stall path
// counts, and nothing can change mid-span), and the fetch unit's freeze /
// I-cache-wait counters.
//
//sim:hotpath
func (c *Core) skipAhead() {
	bound := c.wakeBound()
	if bound <= c.now || bound == horizon {
		return // nothing to skip, or a wedged machine the watchdog must see
	}
	n := bound - c.now
	c.stats.Cycles += n
	c.stats.SkippedAhead += n
	if c.inRunahead {
		c.stats.RunaheadCycles += n
	}
	if c.stalledFW {
		c.stats.FullWindowStallCycles += n
		c.stats.RobFullEvents += n
	}
	if c.tel != nil {
		c.tel.CycleSkip(c.now, n, "idle")
		if c.stalledFW {
			c.tel.FullWindowStallN(c.now, n)
		}
	}
	c.fetch.SkipIdle(c.now, n)
	c.now = bound
}

// retrySkip fast-forwards a proven steady retry span: it bounds the span
// by every wake-up source (including occupied-MSHR releases and busy
// divide units, which inert skips never need), applies the per-cycle
// delta in bulk, and jumps. It reports whether any cycles were skipped.
//
//sim:hotpath
func (c *Core) retrySkip(d *retrySnap) bool {
	bound := c.wakeBound()
	if t, ok := c.hier.NextMSHRRelease(c.now - 1); ok && t < bound {
		bound = t
	}
	if t, ok := c.fu.nextDivFree(c.now - 1); ok && t < bound {
		bound = t
	}
	if bound <= c.now || bound == horizon {
		return false
	}
	n := bound - c.now
	c.applyRetryDelta(d, n)
	c.stats.SkippedAhead += n
	if c.tel != nil {
		c.tel.CycleSkip(c.now, n, "retry")
		if c.stalledFW {
			// The proven per-cycle delta stalls every cycle of the span.
			c.tel.FullWindowStallN(c.now, n)
		}
	}
	c.now = bound
	return true
}
