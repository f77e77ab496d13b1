package runahead

import (
	"fmt"

	"repro/internal/rename"
)

// PRDQStats counts PRDQ activity.
type PRDQStats struct {
	Allocs   int64
	Deallocs int64
	Stalls   int64 // allocation attempts rejected because the queue is full
}

// PRDQ is the Precise Register Deallocation Queue (Section 3.4): an
// in-order FIFO that frees the previous physical-register mapping of each
// runahead µop once (a) the µop has executed and (b) it reaches the queue
// head. In-order deallocation guarantees no in-flight runahead µop can
// still read a register when it is freed.
//
// Entries are identified by the monotonically increasing ticket returned
// from Alloc.
type prdqEntry struct {
	ticket   int64
	old      rename.PReg
	executed bool
}

// PRDQ is a fixed-capacity in-order deallocation queue.
type PRDQ struct {
	entries    []prdqEntry // ring buffer
	head, size int
	nextTicket int64
	stats      PRDQStats
}

// NewPRDQ builds a PRDQ with the given capacity (Table 1: 192).
func NewPRDQ(capacity int) *PRDQ {
	if capacity <= 0 {
		panic(fmt.Sprintf("runahead: PRDQ capacity %d must be positive", capacity))
	}
	return &PRDQ{entries: make([]prdqEntry, capacity)}
}

// Len returns the number of live entries.
func (q *PRDQ) Len() int { return q.size }

// Full reports whether allocation would fail.
func (q *PRDQ) Full() bool { return q.size == len(q.entries) }

// Stats returns a copy of the counters.
func (q *PRDQ) Stats() PRDQStats { return q.stats }

// ResetStats zeroes the counters.
func (q *PRDQ) ResetStats() { q.stats = PRDQStats{} }

// StorageBytes returns the hardware cost at 4 bytes per entry
// (Section 3.6: 192 entries -> 768 B).
func (q *PRDQ) StorageBytes() int { return len(q.entries) * 4 }

// Alloc appends an entry recording the µop's previous destination mapping
// (rename.PRegNone when the µop had no destination or the old mapping must
// not be recycled). It returns a ticket for MarkExecuted, or ok=false when
// the queue is full — the runahead rename stage must stall.
//
//sim:hotpath
func (q *PRDQ) Alloc(old rename.PReg) (ticket int64, ok bool) {
	if q.Full() {
		q.stats.Stalls++
		return 0, false
	}
	t := q.nextTicket
	q.nextTicket++
	q.entries[(q.head+q.size)%len(q.entries)] = prdqEntry{ticket: t, old: old}
	q.size++
	q.stats.Allocs++
	return t, true
}

// MarkExecuted sets the executed bit for the entry with the given ticket.
// Marking an already-drained ticket is a no-op (the µop completed after a
// runahead exit cleared the queue). Tickets are allocated consecutively
// and the queue drains in order, so the live entries always hold a
// contiguous ticket range — the entry's position is its ticket's offset
// from the head ticket, making this O(1).
func (q *PRDQ) MarkExecuted(ticket int64) {
	if q.size == 0 {
		return
	}
	idx := ticket - q.entries[q.head].ticket
	if idx < 0 || idx >= int64(q.size) {
		return
	}
	q.entries[(q.head+int(idx))%len(q.entries)].executed = true
}

// Drain pops executed entries from the head, in order, returning the
// physical registers to free. It stops at the first unexecuted entry.
func (q *PRDQ) Drain(free func(rename.PReg)) int {
	n := 0
	for q.size > 0 {
		e := &q.entries[q.head]
		if !e.executed {
			break
		}
		if e.old != rename.PRegNone {
			free(e.old)
		}
		q.head = (q.head + 1) % len(q.entries)
		q.size--
		q.stats.Deallocs++
		n++
	}
	return n
}

// Clear discards all entries (runahead exit: the RAT and free lists are
// restored wholesale, so pending deallocations are moot).
func (q *PRDQ) Clear() {
	q.head, q.size = 0, 0
}
