package runahead

import "fmt"

// EMQStats counts EMQ activity.
type EMQStats struct {
	Pushes int64
	Pops   int64
	Stalls int64 // pushes rejected because the queue is full
}

// EMQ is the Extended Micro-op Queue (Section 3.3's optimization): during
// runahead it buffers every decoded µop (by dynamic sequence number) so
// that, at runahead exit, the core dispatches them directly instead of
// re-fetching and re-decoding. When the EMQ fills, runahead stalls until
// the stalling load returns — the paper's explanation for PRE+EMQ's lower
// speedup and better energy.
type EMQ struct {
	seqs       []int64 // ring buffer
	head, size int
	stats      EMQStats
}

// NewEMQ builds an EMQ with the given capacity (Table 1: 768 = 4x ROB).
func NewEMQ(capacity int) *EMQ {
	if capacity <= 0 {
		panic(fmt.Sprintf("runahead: EMQ capacity %d must be positive", capacity))
	}
	return &EMQ{seqs: make([]int64, capacity)}
}

// Len returns the number of buffered µops.
func (q *EMQ) Len() int { return q.size }

// Full reports whether Push would fail.
func (q *EMQ) Full() bool { return q.size == len(q.seqs) }

// Stats returns a copy of the counters.
func (q *EMQ) Stats() EMQStats { return q.stats }

// ResetStats zeroes the counters.
func (q *EMQ) ResetStats() { q.stats = EMQStats{} }

// StorageBytes returns the hardware cost at 4 bytes per µop slot
// (Section 3.6: a 768-entry EMQ adds 3 KB).
func (q *EMQ) StorageBytes() int { return len(q.seqs) * 4 }

// Push buffers a decoded µop's sequence number, returning false (and
// counting a stall) when full.
//
//sim:hotpath
func (q *EMQ) Push(seq int64) bool {
	if q.Full() {
		q.stats.Stalls++
		return false
	}
	q.seqs[(q.head+q.size)%len(q.seqs)] = seq
	q.size++
	q.stats.Pushes++
	return true
}

// PopN removes the k oldest buffered sequence numbers (0 <= k <= Len):
// the µops the core re-dispatched this cycle.
//
//sim:hotpath
func (q *EMQ) PopN(k int) {
	q.head = (q.head + k) % len(q.seqs)
	q.size -= k
	q.stats.Pops += int64(k)
}

// Clear discards all entries.
func (q *EMQ) Clear() { q.head, q.size = 0, 0 }

// At returns the i-th oldest buffered sequence number (0 <= i < Len).
func (q *EMQ) At(i int) int64 {
	if i < 0 || i >= q.size {
		panic("runahead: EMQ index out of range")
	}
	return q.seqs[(q.head+i)%len(q.seqs)]
}
