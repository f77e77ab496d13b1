package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded from the benchmark's own calls
// into a layer. Times are offsets from the tracer's start.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = root
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

//sim:wallclock span timestamps are host measurements written to the sidecar, never into results
func newTracer() *tracer { return &tracer{t0: time.Now()} }

// offset converts a wall-clock instant to the tracer's time base.
func (t *tracer) offset(at time.Time) time.Duration {
	if t == nil {
		return 0
	}
	return at.Sub(t.t0)
}

// begin opens a span and returns its id (0 on a nil tracer).
//
//sim:wallclock span timestamps are host measurements written to the sidecar, never into results
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	return t.add(name, parent, t.offset(time.Now()), -1)
}

// end closes a span opened by begin.
//
//sim:wallclock span timestamps are host measurements written to the sidecar, never into results
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	at := t.offset(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = at
	t.mu.Unlock()
}

// add records a finished (or, with end < 0, open) span.
func (t *tracer) add(name string, parent int, start, end time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// finished returns a copy of every span with its self time filled in.
func (t *tracer) finished() []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	fillSelf(spans)
	return spans
}

// totalSeconds sums the durations of the spans with the given name.
func totalSeconds(spans []span, name string) float64 {
	var total time.Duration
	for _, s := range spans {
		if s.Name == name {
			total += s.End - s.Start
		}
	}
	return total.Seconds()
}

// fillSelf sets each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap each other
// (cells run on parallel workers), so the covered part is the length of
// the union of the children's intervals, clipped to the parent.
func fillSelf(spans []span) {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
}

// covered returns the length of the union of the given intervals
// clipped to [lo, hi].
func covered(lo, hi time.Duration, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	for i := 0; i < len(ivs); {
		a, b := ivs[i].a, ivs[i].b
		for i++; i < len(ivs) && ivs[i].a <= b; i++ {
			b = max(b, ivs[i].b)
		}
		total += b - a
	}
	return total
}

// writeSpans writes the spans and a per-name self-time summary to path.
func writeSpans(path string, spans []span) error {
	type summary struct {
		Name   string  `json:"name"`
		Count  int     `json:"count"`
		TotalS float64 `json:"total_s"`
		SelfS  float64 `json:"self_s"`
	}
	byName := make(map[string]*summary)
	var names []string
	for _, s := range spans {
		sm := byName[s.Name]
		if sm == nil {
			sm = &summary{Name: s.Name}
			byName[s.Name] = sm
			names = append(names, s.Name)
		}
		sm.Count++
		sm.TotalS += (s.End - s.Start).Seconds()
		sm.SelfS += s.Self.Seconds()
	}
	doc := struct {
		Summary []summary `json:"summary"`
		Spans   []span    `json:"spans"`
	}{Spans: spans}
	for _, n := range names {
		doc.Summary = append(doc.Summary, *byName[n])
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
