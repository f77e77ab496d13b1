package runahead

import "repro/internal/telemetry"

// This file publishes the runahead structures' counters into the
// telemetry metrics registry, under the "runahead/" namespace. Publishing
// is a post-run snapshot — none of it runs on the simulation hot path.

// PublishMetrics snapshots the SST's counters into reg.
func (s *SST) PublishMetrics(reg *telemetry.Registry) {
	st := s.Stats()
	reg.Counter("runahead/sst/lookups", st.Lookups)
	reg.Counter("runahead/sst/hits", st.Hits)
	reg.Counter("runahead/sst/inserts", st.Inserts)
	reg.Counter("runahead/sst/evicts", st.Evicts)
}

// PublishMetrics snapshots the PRDQ's counters into reg.
func (q *PRDQ) PublishMetrics(reg *telemetry.Registry) {
	s := q.Stats()
	reg.Counter("runahead/prdq/allocs", s.Allocs)
	reg.Counter("runahead/prdq/deallocs", s.Deallocs)
	reg.Counter("runahead/prdq/stalls", s.Stalls)
}

// PublishMetrics snapshots the EMQ's counters into reg.
func (q *EMQ) PublishMetrics(reg *telemetry.Registry) {
	s := q.Stats()
	reg.Counter("runahead/emq/pushes", s.Pushes)
	reg.Counter("runahead/emq/pops", s.Pops)
	reg.Counter("runahead/emq/stalls", s.Stalls)
}
