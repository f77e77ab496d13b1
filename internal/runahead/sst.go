// Package runahead provides the hardware structures proposed by the paper
// and its baselines: the Stalling Slice Table (SST) and Precise Register
// Deallocation Queue (PRDQ) of PRE, the Extended Micro-op Queue (EMQ) of
// PRE+EMQ, and the backward dataflow walker used by the runahead buffer
// to extract a dependence chain from the ROB.
//
// These are plain data structures with no pipeline knowledge; the
// controllers in internal/core drive them.
package runahead

import (
	"fmt"
	"math/bits"
)

// SSTStats counts SST activity for the energy model and Section 3.6
// accounting.
type SSTStats struct {
	Lookups int64
	Hits    int64
	Inserts int64
	Evicts  int64
}

// SST is the Stalling Slice Table: a fully-associative, LRU-replaced cache
// of instruction addresses (PCs) known to belong to a stalling slice
// (Section 3.2). A hit means "this µop feeds a long-latency load; execute
// it in runahead mode".
//
// The table is probed for every decoded µop — in normal mode and (at up
// to RunaheadWidth per cycle) during PRE runahead — so it is implemented
// as an open-addressed hash table over a preallocated node arena rather
// than a Go map: no hashing allocation, no pointer chasing, and all
// storage fixed at construction.
type SST struct {
	capacity int

	// tbl maps hash slots to arena indices + 1 (0 = empty); linear
	// probing with backward-shift deletion keeps probe chains compact.
	tbl  []int32
	mask uint64

	// nodes is the LRU list arena; used nodes form a doubly-linked list
	// via prev/next indices, most-recent at head. -1 terminates.
	nodes      []sstNode
	used       int
	head, tail int32

	stats SSTStats
}

type sstNode struct {
	pc         uint64
	prev, next int32
}

const sstNil = int32(-1)

// NewSST builds an SST with the given entry capacity (Table 1: 256).
func NewSST(capacity int) *SST {
	if capacity <= 0 {
		panic(fmt.Sprintf("runahead: SST capacity %d must be positive", capacity))
	}
	// 4x slots keeps the linear-probe load factor at 25%.
	slots := 1 << bits.Len(uint(capacity*4-1))
	s := &SST{
		capacity: capacity,
		tbl:      make([]int32, slots),
		mask:     uint64(slots - 1),
		nodes:    make([]sstNode, capacity),
		head:     sstNil,
		tail:     sstNil,
	}
	return s
}

// Len returns the number of live entries.
func (s *SST) Len() int { return s.used }

// Stats returns a copy of the counters.
func (s *SST) Stats() SSTStats { return s.stats }

// ResetStats zeroes the counters.
func (s *SST) ResetStats() { s.stats = SSTStats{} }

// Counters returns the live counters; ResetStats zeroes them in place.
func (s *SST) Counters() *SSTStats { return &s.stats }

// StorageBytes returns the SST's hardware cost with 4-byte tags
// (Section 3.6: 256 entries -> 1 KB).
func (s *SST) StorageBytes() int { return s.capacity * 4 }

func (s *SST) slotOf(pc uint64) uint64 {
	return (pc * 0x9e3779b97f4a7c15) >> 32 & s.mask
}

// find returns the arena index of pc's node, or sstNil.
func (s *SST) find(pc uint64) int32 {
	for slot := s.slotOf(pc); ; slot = (slot + 1) & s.mask {
		n := s.tbl[slot]
		if n == 0 {
			return sstNil
		}
		if s.nodes[n-1].pc == pc {
			return n - 1
		}
	}
}

// delete removes pc from the hash table, then re-homes the contiguous
// occupied run that followed it so no probe chain is broken. Deletion
// only happens on LRU eviction, which is rare relative to lookups.
func (s *SST) delete(pc uint64) {
	slot := s.slotOf(pc)
	for s.tbl[slot] == 0 || s.nodes[s.tbl[slot]-1].pc != pc {
		slot = (slot + 1) & s.mask
	}
	s.tbl[slot] = 0
	s.reinsertCluster((slot + 1) & s.mask)
}

// reinsertCluster re-homes the contiguous occupied run starting at slot
// (after a deletion opened a gap before it).
func (s *SST) reinsertCluster(slot uint64) {
	for ; s.tbl[slot] != 0; slot = (slot + 1) & s.mask {
		n := s.tbl[slot]
		s.tbl[slot] = 0
		s.place(n)
	}
}

// place inserts an arena index (+1) at its pc's probe position.
func (s *SST) place(n int32) {
	slot := s.slotOf(s.nodes[n-1].pc)
	for s.tbl[slot] != 0 {
		slot = (slot + 1) & s.mask
	}
	s.tbl[slot] = n
}

func (s *SST) unlink(i int32) {
	n := &s.nodes[i]
	if n.prev != sstNil {
		s.nodes[n.prev].next = n.next
	} else {
		s.head = n.next
	}
	if n.next != sstNil {
		s.nodes[n.next].prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = sstNil, sstNil
}

func (s *SST) pushFront(i int32) {
	n := &s.nodes[i]
	n.prev = sstNil
	n.next = s.head
	if s.head != sstNil {
		s.nodes[s.head].prev = i
	}
	s.head = i
	if s.tail == sstNil {
		s.tail = i
	}
}

// Lookup probes for pc, refreshing its LRU position on a hit.
//
//sim:hotpath
func (s *SST) Lookup(pc uint64) bool {
	s.stats.Lookups++
	i := s.find(pc)
	if i == sstNil {
		return false
	}
	s.stats.Hits++
	if s.head != i {
		s.unlink(i)
		s.pushFront(i)
	}
	return true
}

// Contains probes without touching LRU or statistics (tests, reports).
func (s *SST) Contains(pc uint64) bool { return s.find(pc) != sstNil }

// Insert adds pc (refreshing it if already present), evicting the LRU
// entry when full.
//
//sim:hotpath
func (s *SST) Insert(pc uint64) {
	if i := s.find(pc); i != sstNil {
		if s.head != i {
			s.unlink(i)
			s.pushFront(i)
		}
		return
	}
	var i int32
	if s.used >= s.capacity {
		// Recycle the evicted LRU node: a full table (the steady state of
		// any long run) inserts without allocating.
		i = s.tail
		s.unlink(i)
		s.delete(s.nodes[i].pc)
		s.stats.Evicts++
	} else {
		i = int32(s.used)
		s.used++
	}
	s.nodes[i].pc = pc
	s.place(i + 1)
	s.pushFront(i)
	s.stats.Inserts++
}
