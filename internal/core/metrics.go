package core

import "repro/internal/telemetry"

// PublishMetrics snapshots the core's measured-window counters into the
// telemetry registry under the "core/" namespace (plus the runahead
// structures under "runahead/"). It runs once, after the measured
// window — never on the simulation hot path — and is purely a read of
// existing statistics, so publishing cannot perturb results.
func (c *Core) PublishMetrics(reg *telemetry.Registry) {
	s := c.stats
	reg.Counter("core/cycles", s.Cycles)
	reg.Counter("core/committed", s.Committed)
	reg.Gauge("core/ipc", s.IPC())
	reg.Counter("core/decoded", s.Decoded)
	reg.Counter("core/renamed", s.Renamed)
	reg.Counter("core/dispatched", s.Dispatched)
	reg.Counter("core/issued/alu", s.IssuedALU)
	reg.Counter("core/issued/fpu", s.IssuedFPU)
	reg.Counter("core/issued/load", s.IssuedLoad)
	reg.Counter("core/issued/store", s.IssuedStore)
	reg.Counter("core/issued/branch", s.IssuedBranch)
	reg.Counter("core/completed", s.Completed)
	reg.Counter("core/pseudo_retired", s.PseudoRetired)
	reg.Counter("core/branch_mispredicts", s.BranchMispredicts)

	reg.Counter("core/stall/full_window_cycles", s.FullWindowStallCycles)
	reg.Counter("core/stall/rob_full_events", s.RobFullEvents)

	reg.Counter("core/skip/cycles", s.SkippedAhead)

	reg.Counter("core/runahead/entries", s.Entries)
	reg.Counter("core/runahead/entries_skipped", s.EntriesSkipped)
	reg.Counter("core/runahead/cycles", s.RunaheadCycles)
	reg.Counter("core/runahead/executed", s.RunaheadExecuted)
	reg.Counter("core/runahead/inv", s.RunaheadINV)
	reg.Counter("core/runahead/prefetches", s.Prefetches)
	reg.Counter("core/runahead/divergence_stops", s.DivergenceStops)
	reg.Counter("core/runahead/replay_exhausted", s.ReplayExhausted)
	reg.Counter("core/runahead/emq_dispatched", s.EMQDispatched)
	reg.Histogram("core/runahead/interval_cycles", s.Intervals)
	reg.Gauge("core/runahead/refill_penalty_mean", s.RefillPenalty.Mean())
	reg.Gauge("core/runahead/free_iq_at_entry", s.FreeIQAtEntry.Mean())
	reg.Gauge("core/runahead/free_int_at_entry", s.FreeIntRegAtEntry.Mean())
	reg.Gauge("core/runahead/free_fp_at_entry", s.FreeFPRegAtEntry.Mean())

	fe := c.fetch.Stats()
	reg.Counter("core/fetch/uops", fe.FetchedUops)
	reg.Counter("core/fetch/freeze_cycles", fe.FreezeCycles)
	reg.Counter("core/fetch/icache_stall_cycles", fe.ICacheStallCy)

	c.sst.PublishMetrics(reg)
	c.prdq.PublishMetrics(reg)
	c.emq.PublishMetrics(reg)
}
