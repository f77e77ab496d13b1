package core

import (
	"repro/internal/rename"
	"repro/internal/uarch"
)

// maybeEnterRunahead decides whether the full-window stall at head starts
// a runahead episode. (hm, hr) must be the (incomplete) ROB head entry.
func (c *Core) maybeEnterRunahead(hm *slotMeta, hr *uopRec) {
	if c.cfg.Mode == ModeOoO || c.inRunahead {
		return
	}
	if c.cfg.Mode == ModePREEMQ && c.emqDraining {
		// The EMQ is still re-dispatching the previous episode's µops;
		// entering now would interleave new buffered µops with old ones.
		return
	}
	// Only a long-latency load at the head triggers runahead. The
	// remaining-latency test (rather than the serving level) also covers
	// demand loads that merged onto a still-in-flight prefetch — they are
	// outstanding LLC misses in every sense that matters.
	if hm.st != sIssued || !hr.isLoad() {
		return
	}
	remaining := hr.readyAt - c.now
	if remaining <= 2 {
		return // returning this very moment; nothing to run ahead of
	}
	if c.cfg.Mode == ModeRA || c.cfg.Mode == ModeRABuffer {
		// Mutlu's short-interval filter, using the load's predicted
		// remaining latency (the simulator's readyAt stands in for the
		// MSHR-age estimate real hardware uses). PRE deliberately has no
		// such filter: entering costs it nothing, and short intervals are
		// extra prefetch opportunities (Section 2.4).
		if remaining < c.cfg.MinRunaheadCycles {
			if c.lastSkipSeq != hr.seq {
				c.stats.EntriesSkipped++
				c.lastSkipSeq = hr.seq
				c.progressed = true
			}
			return
		}
	}
	c.enterRunahead(hm, hr)
}

// enterRunahead performs the mode-specific entry sequence.
func (c *Core) enterRunahead(hm *slotMeta, hr *uopRec) {
	c.progressed = true
	c.iqDirty = true
	c.inRunahead = true
	c.entryCycle = c.now
	c.exitCycle = hr.readyAt
	c.stallSeq = hr.seq
	c.stallPC = hr.pc
	c.stallDstP = hr.out.DstP
	c.raDiverged = false
	c.stats.Entries++

	if c.tel != nil {
		c.tel.RunaheadEnter(c.now, hr.pc, hr.seq, c.cfg.Mode.String(), hr.readyAt-c.now)
		c.telDispatched = c.stats.Dispatched
		c.telPrefetches = c.stats.Prefetches
		c.telINV = c.stats.RunaheadINV
	}

	// E7: free-resource headroom at entry (Section 3.4).
	intFree, fpFree := c.ren.FreeCounts()
	c.stats.FreeIQAtEntry.Observe(float64(c.iq.freeSlots()) / float64(c.cfg.IQSize))
	c.stats.FreeIntRegAtEntry.Observe(float64(intFree) / float64(c.cfg.Rename.IntPRF))
	c.stats.FreeFPRegAtEntry.Observe(float64(fpFree) / float64(c.cfg.Rename.FPPRF))

	switch c.cfg.Mode {
	case ModeRA, ModeRABuffer:
		c.ren.CheckpointCommittedInto(&c.cpFullBuf)
		c.cpFull = &c.cpFullBuf
		c.pseudoRetire = true
		if c.cfg.FreeExit {
			c.takeSnapshotInto(&c.snapBuf)
			c.snap = &c.snapBuf
		}
		// The stalling load pseudo-completes with an INV result so the
		// window drains through pseudo-retirement.
		c.ren.MarkPoisoned(hr.out.DstP, true)
		c.wake(hr.out.DstP)
		hm.st = sDone
		hm.flags |= fInvResult
		// Everything in flight is now runahead work: its loads prefetch,
		// and — Mutlu's runahead semantics — every load already waiting on
		// a long-latency fill (its own miss or a merge onto one) converts
		// to an immediate INV completion; the fill keeps warming the
		// caches in the background.
		longLat := int64(c.cfg.Mem.L3.HitLatency)
		idx := c.rob.head
		for i := 0; i < c.rob.size; i++ {
			m, r := &c.rob.meta[idx], &c.rob.rec[idx]
			m.flags |= fInRunahead
			if m.st == sIssued && r.isLoad() && r.readyAt > c.now+longLat {
				m.flags |= fInvResult
				r.readyAt = c.now + 1
				c.events.schedule(c.now, completion{cycle: r.readyAt, kind: kROB, slot: int32(idx), gen: m.gen})
			}
			idx++
			if idx == len(c.rob.meta) {
				idx = 0
			}
		}
		if c.cfg.Mode == ModeRABuffer {
			c.initReplay()
		}
	case ModePRE, ModePREEMQ:
		// Section 3.1: checkpoint the RAT; discard nothing. The stalling
		// load's register is poisoned but NOT published: normal-mode
		// consumers keep waiting for the real data while runahead slice
		// µops observe INV at rename.
		c.ren.CheckpointSpecInto(&c.cpSpecBuf)
		c.cpSpec = &c.cpSpecBuf
		c.ren.BeginRunahead()
		c.ren.MarkPoisoned(hr.out.DstP, false)
		c.sst.Insert(c.stallPC)
		c.prdq.Clear()
		c.emq.Clear()
		c.preResumeSeq = -1
		c.preDiverged = 0
		c.preScanStop = false
	}
}

// exitRunahead returns to normal mode: the stalling load's data arrived.
func (c *Core) exitRunahead() {
	c.iqDirty = true
	c.stats.Intervals.Observe(c.now - c.entryCycle)
	if c.tel != nil {
		c.tel.RunaheadExit(c.now,
			c.stats.Dispatched-c.telDispatched,
			c.stats.Prefetches-c.telPrefetches,
			c.stats.RunaheadINV-c.telINV)
	}
	switch c.cfg.Mode {
	case ModeRA, ModeRABuffer:
		if c.cfg.FreeExit && c.snap != nil {
			c.restoreSnapshot(c.snap)
			c.snap = nil
		} else {
			// Flush the entire pipeline and restart at the stalling load
			// (Section 2.4) — the flush/refill overhead PRE eliminates.
			c.rob.flush()
			c.iq.clear()
			c.pre.flush()
			c.sq.dropYoungerThan(c.stallSeq)
			c.lqNorm, c.lqPre = 0, 0
			c.ren.RestoreFull(c.cpFull)
			c.fetch.Rewind(c.stallSeq, c.now+1)
			c.refillFrom = c.now
			c.refillDispatched = 0
			c.measuringRefill = true
		}
		c.chain = nil
		c.replayPending = c.replayPending[:0]
	case ModePRE, ModePREEMQ:
		// Section 3.5: restore the RAT, drop runahead transients; the ROB
		// is intact, so commit restarts immediately once the head's
		// completion event lands (this cycle).
		c.iq.dropPRE()
		c.pre.flush()
		c.lqPre = 0
		c.prdq.Clear()
		c.ren.RestoreSpec(c.cpSpec)
		c.ren.ClearPoison(c.stallDstP)
		if c.cfg.Mode == ModePREEMQ {
			// Re-dispatch buffered µops instead of re-fetching them. The
			// fetch queue already continues exactly where the EMQ ends
			// (runahead popped µops into the EMQ in fetch order), so the
			// front-end needs no redirect at all — the paper's energy
			// saving.
			c.emqDraining = c.emq.Len() > 0
		} else if c.preResumeSeq >= 0 {
			// Re-fetch everything consumed during runahead.
			c.fetch.Rewind(c.preResumeSeq, c.now+1)
		}
	}
	c.inRunahead = false
	c.pseudoRetire = false
	c.raDiverged = false
	c.lastProgress = c.now // episode made progress by definition
}

// --- PRE runahead dispatch --------------------------------------------------

// admitRunahead filters one decoded µop through the SST in PRE runahead
// mode (Section 3.2): hits execute on free resources, misses are dropped.
// In PRE+EMQ mode every admitted decode is buffered into the EMQ. It
// returns false when the µop stays queued: the EMQ is full, or an SST hit
// found no free resources and retries next cycle.
//
//sim:hotpath
func (c *Core) admitRunahead(seq int64, mispredicted bool) bool {
	useEMQ := c.cfg.Mode == ModePREEMQ
	if useEMQ && c.emq.Full() {
		// Paper: when the EMQ fills, the core stalls until the stalling
		// load returns.
		c.preScanStop = true
		c.progressed = true
		return false
	}
	u := c.stream.At(seq)
	if c.sst.Lookup(u.PC) {
		c.learnProducers(u)
		if !c.preExecute(u, mispredicted) {
			// The retry re-probes the SST (a counted lookup) every cycle,
			// so the cycle is not skippable.
			c.retryBlocked = true
			return false
		}
	} else if mispredicted {
		// A mispredicted branch that will not execute: charge a redirect
		// bubble and track divergence (the real front-end would wander
		// off-path).
		c.fetch.Bubble(c.now, int64(c.cfg.Fetch.Depth))
		c.preDiverged++
		if c.preDiverged > c.cfg.PREMaxDivergence {
			c.preScanStop = true
			c.stats.DivergenceStops++
		}
	}
	c.progressed = true
	if useEMQ {
		c.emq.Push(seq)
	}
	return true
}

// preExecute renames and dispatches one SST-hit µop in PRE runahead mode.
// It returns false when a resource (register, PRDQ, IQ, LQ, pool slot) is
// unavailable this cycle.
//
//sim:hotpath
func (c *Core) preExecute(u *uarch.Uop, mispredicted bool) bool {
	// All checks precede all side effects.
	if !c.ren.CanRename(u.Dst) || c.prdq.Full() {
		return false
	}
	poisoned := c.ren.IsPoisoned(c.ren.Lookup(u.Src1)) ||
		c.ren.IsPoisoned(c.ren.Lookup(u.Src2))
	executable := !poisoned && !u.IsStore()
	if executable {
		if c.iq.full() {
			return false
		}
		if u.IsLoad() && c.lqNorm+c.lqPre >= c.cfg.LQSize {
			return false
		}
	}
	poolIdx := -1
	if executable {
		var ok bool
		poolIdx, ok = c.pre.alloc()
		if !ok {
			return false
		}
	}

	out, ok := c.ren.Rename(u, true)
	if !ok {
		if poolIdx >= 0 {
			c.pre.release(poolIdx)
		}
		return false
	}
	c.stats.Renamed++
	// PRDQ: record the old mapping; only runahead-epoch registers may be
	// recycled mid-episode (pre-entry mappings come back with the RAT).
	old := rename.PRegNone
	if c.ren.IsRunaheadAlloc(out.OldDstP) {
		old = out.OldDstP
	}
	ticket, ok := c.prdq.Alloc(old)
	if !ok {
		// Cannot happen: Full() was checked; defensive.
		ticket = -1
	}

	if !executable {
		// INV slice µop (poisoned source) or runahead store: absorbed at
		// rename. Poison propagates; the PRDQ entry completes instantly.
		if u.HasDst() {
			c.ren.MarkPoisoned(out.DstP, false)
		}
		if ticket >= 0 {
			c.prdq.MarkExecuted(ticket)
		}
		c.stats.RunaheadINV++
		return true
	}

	m, r := &c.pre.meta[poolIdx], &c.pre.rec[poolIdx]
	m.st = sWaiting // gen is preserved across slot reuse
	m.flags = fInRunahead
	if mispredicted {
		m.flags |= fMispredicted
	}
	r.seq = u.Seq
	r.pc = u.PC
	r.addr = u.Addr
	r.out = out
	r.prdq = ticket
	r.sqIdx = -1
	r.class = u.Class
	r.dst = u.Dst
	r.size = u.Size
	if u.IsLoad() {
		c.lqPre++
		m.flags |= fLQHeld
	}
	c.enqueue(kPRE, poolIdx, m, r)
	c.stats.Dispatched++
	return true
}

// --- RA-buffer replay -----------------------------------------------------------

// initReplay extracts the stalling chain from the ROB (backward dataflow
// walk) and prepares the replay engine. The front-end is power-gated for
// the whole episode. The hardware walk scans the ROB at one entry per
// cycle ("expensive CAM lookups", Section 3.6), so replay dispatch only
// begins once the walk has finished.
func (c *Core) initReplay() {
	// The ROB no longer retains full µops; the trace stream still holds
	// every in-flight seq (nothing past the commit head is released), so
	// the walk window is rebuilt from the stream by seq.
	c.chainWindow = c.chainWindow[:0]
	idx := c.rob.head
	for i := 0; i < c.rob.size; i++ {
		c.chainWindow = append(c.chainWindow, *c.stream.At(c.rob.rec[idx].seq))
		idx++
		if idx == len(c.rob.meta) {
			idx = 0
		}
	}
	var walkCycles int
	c.chain, walkCycles = c.chainX.Extract(c.chainWindow, c.stallPC, c.cfg.ChainMaxLen)
	c.replayStart = c.now + int64(walkCycles)
	c.fetch.Freeze()
	c.replayCursor = c.stallSeq + 1
	c.replayPending = c.replayPending[:0]
	c.replayIdx = 0
	c.replayDead = len(c.chain) == 0
	if c.replayDead {
		c.stats.ReplayExhausted++
	}
}

// prepareReplayIteration locates the next dynamic instance of every chain
// µop in the instruction stream (one shared forward scan). Returns false
// when the lookahead budget is exhausted.
func (c *Core) prepareReplayIteration() bool {
	c.replayPending = c.replayPending[:0]
	c.replayIdx = 0
	q := c.replayCursor
	limit := c.replayCursor + c.cfg.ReplayLookahead
	for _, cu := range c.chain {
		found := int64(-1)
		// Scan the stream in contiguous spans (bulk-generated blocks)
		// instead of one At call per µop.
	scan:
		for q < limit {
			span := c.stream.Span(q, limit-q)
			for i := range span {
				u := &span[i]
				if u.Class == uarch.ClassJump {
					// Outer-loop transition: the frozen chain's address
					// pattern does not survive the phase change; replay
					// would extrapolate garbage from here on.
					c.replayDead = true
					c.stats.ReplayExhausted++
					return false
				}
				if u.PC == cu.PC {
					found = q + int64(i)
					q = found + 1
					break scan
				}
			}
			q += int64(len(span))
		}
		if found < 0 {
			c.replayDead = true
			c.stats.ReplayExhausted++
			return false
		}
		c.replayPending = append(c.replayPending, found)
	}
	c.replayCursor = q
	return true
}
