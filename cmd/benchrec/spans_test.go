package main

import (
	"testing"
	"time"
)

func TestSpanSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "rep", Start: 0, End: 100 * ms},
		// Two parallel cells overlapping each other: their union is 10..60.
		{ID: 2, Parent: 1, Name: "RunOpts", Start: 10 * ms, End: 70 * ms},
		{ID: 3, Parent: 2, Name: "cell", Start: 10 * ms, End: 40 * ms},
		{ID: 4, Parent: 2, Name: "cell", Start: 20 * ms, End: 60 * ms},
		// A child reaching past its parent counts only inside it.
		{ID: 5, Parent: 1, Name: "WriteJSON", Start: 80 * ms, End: 110 * ms},
		{ID: 6, Parent: 0, Name: "other root", Start: 0, End: 5 * ms},
	}
	fillSelf(spans)
	want := map[int]time.Duration{
		1: 100*ms - 60*ms - 20*ms, // minus RunOpts (10..70) and WriteJSON clipped to 80..100
		2: 60*ms - 50*ms,
		3: 30 * ms,
		4: 40 * ms,
		5: 30 * ms,
		6: 5 * ms,
	}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d (%s): self %v, want %v", s.ID, s.Name, s.Self, want[s.ID])
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0)
	tr.end(id)
	if id != 0 || tr.add("y", 0, 0, 1) != 0 {
		t.Error("a nil tracer handed out span ids")
	}
}
