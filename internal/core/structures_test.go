package core

import (
	"testing"
	"testing/quick"

	"repro/internal/uarch"
)

func TestROBRingLifecycle(t *testing.T) {
	r := newROB(4)
	if !r.empty() || r.full() {
		t.Fatal("fresh ROB state wrong")
	}
	idx := make([]int, 0, 4)
	for i := 0; i < 4; i++ {
		j := r.push()
		r.rec[j].seq = int64(i)
		idx = append(idx, j)
	}
	if !r.full() || r.len() != 4 {
		t.Fatal("ROB must be full after 4 pushes")
	}
	if r.headIdx() != idx[0] {
		t.Error("head index wrong")
	}
	// at(i) walks oldest -> youngest.
	for i := 0; i < 4; i++ {
		if r.rec[r.at(i)].seq != int64(i) {
			t.Errorf("at(%d).seq = %d", i, r.rec[r.at(i)].seq)
		}
	}
	gen := r.meta[idx[0]].gen
	r.pop()
	if r.meta[idx[0]].gen != gen+1 {
		t.Error("pop must invalidate the slot generation")
	}
	if r.len() != 3 {
		t.Error("pop did not shrink")
	}
	// Wraparound: push reuses the freed slot.
	j := r.push()
	if j != idx[0] {
		t.Errorf("push reused slot %d, want %d", j, idx[0])
	}
}

func TestROBFlushInvalidatesAll(t *testing.T) {
	r := newROB(8)
	var gens []uint32
	for i := 0; i < 5; i++ {
		j := r.push()
		gens = append(gens, r.meta[j].gen)
	}
	r.flush()
	if !r.empty() {
		t.Fatal("flush must empty the ROB")
	}
	for i := 0; i < 5; i++ {
		if r.meta[i].gen == gens[i] {
			t.Errorf("slot %d generation not bumped by flush", i)
		}
	}
}

func TestPrePoolAllocReleaseFlush(t *testing.T) {
	p := newPrePool(3)
	a, ok1 := p.alloc()
	b, ok2 := p.alloc()
	c, ok3 := p.alloc()
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("allocs failed")
	}
	if _, ok := p.alloc(); ok {
		t.Fatal("pool overflow")
	}
	genB := p.meta[b].gen
	p.release(b)
	if p.meta[b].gen != genB+1 {
		t.Error("release must bump generation")
	}
	d, ok := p.alloc()
	if !ok || d != b {
		t.Errorf("expected freed slot %d reused, got %d", b, d)
	}
	p.flush()
	if p.live != 0 {
		t.Errorf("flush left %d live", p.live)
	}
	// All three slots allocatable again.
	for i := 0; i < 3; i++ {
		if _, ok := p.alloc(); !ok {
			t.Fatalf("post-flush alloc %d failed", i)
		}
	}
	_ = a
	_ = c
}

func TestIssueQueueOrderAndFilter(t *testing.T) {
	q := newIQ(4)
	for i := 0; i < 3; i++ {
		q.add(kROB)
	}
	q.add(kPRE)
	if !q.full() || q.freeSlots() != 0 {
		t.Fatal("IQ must be full")
	}
	// Ready-list ordering: appends in program order, wake-up insertions
	// in the middle keep seq-ascending order.
	q.markReady(uopRef{kind: kROB, slot: 0, seq: 10})
	q.markReady(uopRef{kind: kROB, slot: 2, seq: 30})
	q.markReady(uopRef{kind: kPRE, slot: 1, seq: 20}) // woken later, but older than slot 2
	if len(q.ready) != 3 || q.ready[0].seq != 10 || q.ready[1].seq != 20 || q.ready[2].seq != 30 {
		t.Errorf("ready order %v", q.ready)
	}
	q.issued(kROB)
	if q.len() != 3 || q.full() {
		t.Errorf("issued must free a slot: len=%d", q.len())
	}
	q.dropPRE()
	if q.len() != 2 {
		t.Errorf("dropPRE left %d entries", q.len())
	}
	for _, r := range q.ready {
		if r.kind != kROB {
			t.Error("dropPRE left a kPRE ready entry")
		}
	}
	q.clear()
	if q.len() != 0 || len(q.ready) != 0 {
		t.Error("clear failed")
	}
}

func TestStoreQueueForwarding(t *testing.T) {
	s := newSQ(8)
	i1 := s.push(10, 0x1000, 8, false)
	s.push(20, 0x2000, 8, false)
	// Younger load at 0x1000 sees the store but data not ready.
	found, ready := s.forwardFrom(30, 0x1000, 8)
	if !found || ready {
		t.Fatalf("forward = (%v,%v), want (true,false)", found, ready)
	}
	s.e[i1].dataReady = true
	if _, ready = s.forwardFrom(30, 0x1000, 8); !ready {
		t.Error("data-ready store must forward")
	}
	// An OLDER load (seq 5) must not see the store.
	if found, _ := s.forwardFrom(5, 0x1000, 8); found {
		t.Error("older load forwarded from younger store")
	}
	// Partial overlap forwards too (byte ranges intersect).
	if found, _ := s.forwardFrom(30, 0x1004, 8); !found {
		t.Error("overlapping range must match")
	}
	// Disjoint address does not.
	if found, _ := s.forwardFrom(30, 0x1008, 8); found {
		t.Error("disjoint range matched")
	}
}

func TestStoreQueueYoungestWins(t *testing.T) {
	s := newSQ(8)
	a := s.push(10, 0x1000, 8, false)
	b := s.push(20, 0x1000, 8, false)
	s.e[a].dataReady = true // older ready, younger not
	_, ready := s.forwardFrom(30, 0x1000, 8)
	if ready {
		t.Error("youngest matching store governs forwarding")
	}
	s.e[b].dataReady = true
	if _, ready = s.forwardFrom(30, 0x1000, 8); !ready {
		t.Error("ready youngest store must forward")
	}
}

func TestStoreQueueDrainAndDrop(t *testing.T) {
	s := newSQ(4)
	i1 := s.push(1, 0x100, 8, false)
	i2 := s.push(2, 0x200, 8, true) // runahead store: never drains to memory
	i3 := s.push(3, 0x300, 8, false)
	s.e[i1].committed = true
	s.e[i2].committed = true
	var drained []uint64
	s.drainHead(func(e *sqEntry) bool {
		drained = append(drained, e.addr)
		return true
	})
	// i1 drains to memory; i2 (runahead) pops silently; i3 uncommitted stops.
	if len(drained) != 1 || drained[0] != 0x100 {
		t.Errorf("drained %v, want [0x100]", drained)
	}
	if s.len() != 1 {
		t.Errorf("SQ len %d, want 1", s.len())
	}
	// Rejection (MSHR full) stops draining and keeps the entry.
	s.e[i3].committed = true
	s.drainHead(func(e *sqEntry) bool { return false })
	if s.len() != 1 {
		t.Error("rejected drain must keep the entry")
	}
	// Flush semantics: drop younger-than cutoff.
	s.push(9, 0x900, 8, false)
	s.dropYoungerThan(5)
	if s.len() != 1 {
		t.Errorf("dropYoungerThan left %d, want 1", s.len())
	}
}

func TestEventQueueOrdering(t *testing.T) {
	var q eventQueue
	// One near event (ring) and two far events (heap).
	q.schedule(0, completion{cycle: 30, slot: 3})
	q.schedule(0, completion{cycle: 200, slot: 4})
	q.schedule(0, completion{cycle: 10, slot: 1})
	q.schedule(0, completion{cycle: 100, slot: 2})
	if at, ok := q.nextAt(0); !ok || at != 10 {
		t.Fatalf("nextAt = %d,%v", at, ok)
	}
	if _, ok := q.popDue(5); ok {
		t.Fatal("nothing due at 5")
	}
	order := []int32{}
	for now := int64(0); now <= 200; now++ {
		for {
			ev, ok := q.popDue(now)
			if !ok {
				break
			}
			if ev.cycle != now {
				t.Fatalf("event for cycle %d popped at %d", ev.cycle, now)
			}
			order = append(order, ev.slot)
		}
	}
	if len(order) != 4 || order[0] != 1 || order[1] != 3 || order[2] != 2 || order[3] != 4 {
		t.Errorf("pop order %v", order)
	}
	if q.len() != 0 {
		t.Errorf("queue not drained: %d left", q.len())
	}
}

// Property: drained cycle-by-cycle (the core's contract — time never jumps
// past a pending event), the event queue pops completions in nondecreasing
// cycle order and loses none.
func TestEventQueueProperty(t *testing.T) {
	f := func(cycles []uint16) bool {
		var q eventQueue
		for i, c := range cycles {
			q.schedule(0, completion{cycle: int64(c), slot: int32(i)})
		}
		last := int64(-1)
		popped := 0
		for now := int64(0); now <= 1<<16; now++ {
			for {
				ev, ok := q.popDue(now)
				if !ok {
					break
				}
				if ev.cycle < last {
					return false
				}
				last = ev.cycle
				popped++
			}
		}
		return popped == len(cycles) && q.len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFUPoolCapacities(t *testing.T) {
	cfg := Default(ModeOoO)
	fu := newFU(&cfg)
	fu.newCycle()
	// 3 ALU ops fit, the 4th does not.
	for i := 0; i < 3; i++ {
		if !fu.tryIssue(uarch.ClassIntAlu, 0) {
			t.Fatalf("alu %d rejected", i)
		}
	}
	if fu.tryIssue(uarch.ClassIntAlu, 0) {
		t.Error("4th ALU op must be rejected")
	}
	// Loads use a separate pool.
	if !fu.tryIssue(uarch.ClassLoad, 0) || !fu.tryIssue(uarch.ClassLoad, 0) {
		t.Error("load ports must be free")
	}
	if fu.tryIssue(uarch.ClassLoad, 0) {
		t.Error("3rd load must be rejected")
	}
	fu.newCycle()
	if !fu.tryIssue(uarch.ClassIntAlu, 1) {
		t.Error("newCycle must reset per-cycle counters")
	}
}

func TestFUPoolUnpipelinedDivide(t *testing.T) {
	cfg := Default(ModeOoO)
	fu := newFU(&cfg)
	fu.newCycle()
	if !fu.tryIssue(uarch.ClassIntDiv, 0) {
		t.Fatal("first divide rejected")
	}
	fu.newCycle()
	if fu.tryIssue(uarch.ClassIntDiv, 1) {
		t.Error("divide unit must be busy for its full latency")
	}
	after := int64(uarch.ClassIntDiv.Latency())
	fu.newCycle()
	if !fu.tryIssue(uarch.ClassIntDiv, after) {
		t.Error("divide unit must free after latency")
	}
}
