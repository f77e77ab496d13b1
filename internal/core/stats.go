package core

import "repro/internal/stats"

// Stats aggregates the core's activity counters. Event counts feed the
// energy model; the histograms and snapshots feed the paper's analysis
// experiments (E4, E5, E7, E9).
type Stats struct {
	// Cycles is the measured-window cycle count.
	Cycles int64
	// Committed counts architecturally retired µops (IPC numerator).
	Committed int64

	// Front-end and pipeline activity (energy events).
	Decoded                                                     int64 // µops through decode (includes runahead re-decodes)
	Renamed                                                     int64 // µops through rename
	Dispatched                                                  int64
	IssuedALU, IssuedFPU, IssuedLoad, IssuedStore, IssuedBranch int64
	Completed                                                   int64
	PseudoRetired                                               int64 // RA/RA-buffer runahead retirement (no arch effect)
	EMQDispatched                                               int64 // µops re-dispatched from the EMQ (skip fetch+decode)

	// Stall accounting.
	FullWindowStallCycles int64 // normal-mode cycles with ROB full, head incomplete
	RobFullEvents         int64

	// SkippedAhead counts the simulated cycles Run advanced in bulk via
	// event-driven cycle skipping (already included in Cycles). Purely an
	// engineering diagnostic: it never feeds results JSON, and with
	// DisableCycleSkip it stays zero while every other counter is
	// unchanged.
	SkippedAhead int64

	// Runahead accounting.
	Entries          int64 // runahead invocations
	EntriesSkipped   int64 // RA/RAB entries suppressed by the interval filter
	RunaheadCycles   int64
	RunaheadExecuted int64 // µops executed in runahead mode
	RunaheadINV      int64 // runahead µops dropped/propagated as INV
	Prefetches       int64 // runahead loads sent to the hierarchy
	DivergenceStops  int64 // PRE scans stopped by unresolved mispredicts
	ReplayExhausted  int64 // RA-buffer replays that ran out of lookahead

	// Interval histogram (runahead interval lengths, cycles) — E5.
	Intervals *stats.Histogram
	// RefillPenalty accumulates, per RA/RAB exit, the cycles from exit
	// until the first post-exit commit — the paper's ~56-cycle estimate
	// (E4).
	RefillPenalty *stats.Running

	// Free-resource snapshots at runahead entry — E7 (Section 3.4).
	FreeIQAtEntry     *stats.Running
	FreeIntRegAtEntry *stats.Running
	FreeFPRegAtEntry  *stats.Running

	// Branch statistics.
	BranchMispredicts int64
}

// NewStats builds an empty stats block.
func NewStats() *Stats {
	return &Stats{
		Intervals:         stats.NewHistogram("runahead-interval", 10, 20, 50, 100, 200, 400, 800, 1600),
		RefillPenalty:     &stats.Running{},
		FreeIQAtEntry:     &stats.Running{},
		FreeIntRegAtEntry: &stats.Running{},
		FreeFPRegAtEntry:  &stats.Running{},
	}
}

// IPC returns committed µops per cycle over the measured window.
func (s *Stats) IPC() float64 {
	return stats.Ratio(float64(s.Committed), float64(s.Cycles))
}

// Reset zeroes all counters (measurement-window start).
func (s *Stats) Reset() {
	*s = *NewStats()
}
