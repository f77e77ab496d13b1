package runahead

import (
	"testing"
	"testing/quick"

	"repro/internal/rename"
	"repro/internal/uarch"
)

// --- SST ---------------------------------------------------------------

func TestSSTBasicLifecycle(t *testing.T) {
	s := NewSST(4)
	if s.Lookup(100) {
		t.Fatal("empty SST must miss")
	}
	s.Insert(100)
	if !s.Lookup(100) {
		t.Fatal("inserted PC must hit")
	}
	st := s.Stats()
	if st.Lookups != 2 || st.Hits != 1 || st.Inserts != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSSTLRUEviction(t *testing.T) {
	s := NewSST(3)
	s.Insert(1)
	s.Insert(2)
	s.Insert(3)
	s.Lookup(1) // 1 becomes MRU; LRU order now 2,3,1
	s.Insert(4) // evicts 2
	if s.Contains(2) {
		t.Error("LRU entry 2 must be evicted")
	}
	for _, pc := range []uint64{1, 3, 4} {
		if !s.Contains(pc) {
			t.Errorf("PC %d must survive", pc)
		}
	}
	if s.Stats().Evicts != 1 {
		t.Errorf("evicts = %d", s.Stats().Evicts)
	}
}

func TestSSTReinsertRefreshes(t *testing.T) {
	s := NewSST(2)
	s.Insert(1)
	s.Insert(2)
	s.Insert(1) // refresh, no eviction
	if s.Len() != 2 || s.Stats().Evicts != 0 {
		t.Fatal("reinsert must not evict")
	}
	s.Insert(3) // evicts 2 (LRU)
	if s.Contains(2) || !s.Contains(1) {
		t.Error("reinsert did not refresh LRU position")
	}
}

func TestSSTStorage(t *testing.T) {
	if NewSST(256).StorageBytes() != 1024 {
		t.Error("256-entry SST must cost 1 KB (Section 3.6)")
	}
}

func TestSSTCapacityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity must panic")
		}
	}()
	NewSST(0)
}

// Property: SST never exceeds capacity and a just-inserted PC is always
// present.
func TestSSTPropertyCapacity(t *testing.T) {
	f := func(pcs []uint16) bool {
		s := NewSST(16)
		for _, pc := range pcs {
			s.Insert(uint64(pc))
			if !s.Contains(uint64(pc)) || s.Len() > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// --- PRDQ --------------------------------------------------------------

func TestPRDQInOrderDealloc(t *testing.T) {
	q := NewPRDQ(4)
	t1, ok1 := q.Alloc(rename.PReg(10))
	t2, ok2 := q.Alloc(rename.PReg(11))
	if !ok1 || !ok2 {
		t.Fatal("allocs failed")
	}
	// Execute out of order: younger first.
	q.MarkExecuted(t2)
	var freed []rename.PReg
	q.Drain(func(p rename.PReg) { freed = append(freed, p) })
	if len(freed) != 0 {
		t.Fatalf("drained %v before head executed", freed)
	}
	q.MarkExecuted(t1)
	q.Drain(func(p rename.PReg) { freed = append(freed, p) })
	if len(freed) != 2 || freed[0] != 10 || freed[1] != 11 {
		t.Fatalf("freed %v, want [10 11] in order", freed)
	}
}

func TestPRDQFullStalls(t *testing.T) {
	q := NewPRDQ(2)
	q.Alloc(1)
	q.Alloc(2)
	if _, ok := q.Alloc(3); ok {
		t.Fatal("full PRDQ must reject")
	}
	if q.Stats().Stalls != 1 {
		t.Errorf("stalls = %d", q.Stats().Stalls)
	}
}

func TestPRDQNoneRegisterSkipped(t *testing.T) {
	q := NewPRDQ(4)
	tk, _ := q.Alloc(rename.PRegNone)
	q.MarkExecuted(tk)
	freed := 0
	q.Drain(func(p rename.PReg) { freed++ })
	if freed != 0 {
		t.Error("PRegNone must not be freed")
	}
	if q.Len() != 0 {
		t.Error("entry must still drain")
	}
}

func TestPRDQClear(t *testing.T) {
	q := NewPRDQ(4)
	q.Alloc(1)
	q.Alloc(2)
	q.Clear()
	if q.Len() != 0 || q.Full() {
		t.Error("clear failed")
	}
	// Tickets continue after clear; stale MarkExecuted is a no-op.
	tk, _ := q.Alloc(3)
	q.MarkExecuted(tk - 1) // stale ticket
	q.MarkExecuted(tk)
	n := q.Drain(func(rename.PReg) {})
	if n != 1 {
		t.Errorf("drained %d, want 1", n)
	}
}

func TestPRDQStorage(t *testing.T) {
	if NewPRDQ(192).StorageBytes() != 768 {
		t.Error("192-entry PRDQ must cost 768 B (Section 3.6)")
	}
}

// Property: the PRDQ frees exactly the non-none registers it was given,
// in allocation order, regardless of execution order.
func TestPRDQPropertyOrder(t *testing.T) {
	f := func(order []uint8) bool {
		n := len(order)
		if n == 0 {
			return true
		}
		if n > 32 {
			n = 32
			order = order[:32]
		}
		q := NewPRDQ(n)
		tickets := make([]int64, n)
		for i := 0; i < n; i++ {
			tk, ok := q.Alloc(rename.PReg(i + 1))
			if !ok {
				return false
			}
			tickets[i] = tk
		}
		// Execute in the permuted order given by sorting keys.
		for _, o := range order {
			q.MarkExecuted(tickets[int(o)%n])
		}
		// Mark all executed (duplicates are fine), then drain.
		for _, tk := range tickets {
			q.MarkExecuted(tk)
		}
		var freed []rename.PReg
		q.Drain(func(p rename.PReg) { freed = append(freed, p) })
		if len(freed) != n {
			return false
		}
		for i, p := range freed {
			if p != rename.PReg(i+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// --- EMQ ---------------------------------------------------------------

func TestEMQFIFO(t *testing.T) {
	q := NewEMQ(4)
	for i := int64(0); i < 4; i++ {
		if !q.Push(i * 10) {
			t.Fatalf("push %d failed", i)
		}
	}
	if q.Push(99) {
		t.Fatal("full EMQ must reject")
	}
	if q.Stats().Stalls != 1 {
		t.Error("stall not counted")
	}
	if v := q.At(3); v != 30 {
		t.Errorf("At(3) = %d, want 30", v)
	}
	for i := int64(0); i < 4; i++ {
		if v := q.At(0); v != i*10 {
			t.Fatalf("pop %d = %d", i, v)
		}
		q.PopN(1)
	}
	if q.Len() != 0 || q.Stats().Pops != 4 {
		t.Fatalf("after 4 pops: len %d, pops %d", q.Len(), q.Stats().Pops)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("At on an empty EMQ must panic")
		}
	}()
	q.At(0)
}

func TestEMQWraparound(t *testing.T) {
	q := NewEMQ(3)
	for round := int64(0); round < 10; round++ {
		q.Push(round)
		if v := q.At(0); q.Len() != 1 || v != round {
			t.Fatalf("round %d: %d (len %d)", round, v, q.Len())
		}
		q.PopN(1)
	}
}

func TestEMQClearAndStorage(t *testing.T) {
	q := NewEMQ(768)
	q.Push(1)
	q.Clear()
	if q.Len() != 0 {
		t.Error("clear failed")
	}
	if q.StorageBytes() != 3072 {
		t.Error("768-entry EMQ must cost 3 KB (Section 3.6)")
	}
}

// --- chain extraction ----------------------------------------------------

func mkUop(pc uint64, class uarch.Class, dst, s1, s2 uarch.Reg, addr uint64) uarch.Uop {
	u := uarch.Uop{PC: pc, Class: class, Dst: dst, Src1: s1, Src2: s2, Addr: addr}
	if class.IsMem() {
		u.Size = 8
	}
	return u
}

func TestExtractChainStreaming(t *testing.T) {
	r1 := uarch.IntReg(1)
	f0 := uarch.FPReg(0)
	f6 := uarch.FPReg(6)
	// i += 1; load f0 <- A[i]; fadd f6 <- f6,f0 ; (repeat)
	window := []uarch.Uop{
		mkUop(4, uarch.ClassIntAlu, r1, r1, uarch.RegNone, 0),
		mkUop(8, uarch.ClassLoad, f0, r1, uarch.RegNone, 0x1000),
		mkUop(12, uarch.ClassFPAdd, f6, f6, f0, 0),
		mkUop(4, uarch.ClassIntAlu, r1, r1, uarch.RegNone, 0),
		mkUop(8, uarch.ClassLoad, f0, r1, uarch.RegNone, 0x1040),
		mkUop(12, uarch.ClassFPAdd, f6, f6, f0, 0),
	}
	chain := ExtractChain(window, 8, 32)
	if len(chain) != 2 {
		t.Fatalf("chain length %d, want 2 (add + load)", len(chain))
	}
	if chain[0].PC != 4 || chain[1].PC != 8 {
		t.Errorf("chain PCs = %#x,%#x, want 4,8", chain[0].PC, chain[1].PC)
	}
}

func TestExtractChainPointerChase(t *testing.T) {
	r1 := uarch.IntReg(1)
	// load r1 <- [r1] repeated: the chain is the single self-feeding load.
	window := []uarch.Uop{
		mkUop(4, uarch.ClassLoad, r1, r1, uarch.RegNone, 0x1000),
		mkUop(4, uarch.ClassLoad, r1, r1, uarch.RegNone, 0x2000),
	}
	chain := ExtractChain(window, 4, 32)
	if len(chain) != 1 {
		// The walk picks the youngest instance; its source is the older
		// load's dst, which is a load => register backtracking stops.
		// Both instances may legitimately appear; accept 1 or 2 but the
		// terminal µop must be the load.
		if len(chain) != 2 {
			t.Fatalf("chain length %d", len(chain))
		}
	}
	last := chain[len(chain)-1]
	if last.PC != 4 || !last.IsLoad() {
		t.Error("chain must end at the stalling load")
	}
}

func TestExtractChainThroughStore(t *testing.T) {
	r1, r2, r3 := uarch.IntReg(1), uarch.IntReg(2), uarch.IntReg(3)
	// r2 = r3+..; store [0x500] <- r2 ; load r1 <- [0x500]; load X <- [r1]
	window := []uarch.Uop{
		mkUop(4, uarch.ClassIntAlu, r2, r3, uarch.RegNone, 0),
		mkUop(8, uarch.ClassStore, uarch.RegNone, r2, uarch.RegNone, 0x500),
		mkUop(12, uarch.ClassLoad, r1, uarch.RegNone, uarch.RegNone, 0x500),
		mkUop(16, uarch.ClassLoad, uarch.IntReg(4), r1, uarch.RegNone, 0x9000),
	}
	chain := ExtractChain(window, 16, 32)
	if len(chain) != 4 {
		t.Fatalf("chain = %v, want the full store-forwarded slice (4 µops)", chain)
	}
	if chain[1].PC != 8 || !chain[1].IsStore() {
		t.Error("store-queue walk missed the forwarding store")
	}
}

func TestExtractChainMissingPC(t *testing.T) {
	window := []uarch.Uop{mkUop(4, uarch.ClassIntAlu, uarch.IntReg(1), uarch.RegNone, uarch.RegNone, 0)}
	if chain := ExtractChain(window, 999, 32); chain != nil {
		t.Error("missing stall PC must yield nil chain")
	}
}

func TestExtractChainRespectsMaxLen(t *testing.T) {
	// A long ALU dependence chain feeding a load.
	var window []uarch.Uop
	for i := 0; i < 64; i++ {
		window = append(window, mkUop(uint64(4+i*4), uarch.ClassIntAlu,
			uarch.IntReg(1), uarch.IntReg(1), uarch.RegNone, 0))
	}
	window = append(window, mkUop(0x999, uarch.ClassLoad, uarch.IntReg(2), uarch.IntReg(1), uarch.RegNone, 0x4000))
	chain := ExtractChain(window, 0x999, 8)
	if len(chain) > 8 {
		t.Errorf("chain length %d exceeds maxLen 8", len(chain))
	}
	if chain[len(chain)-1].PC != 0x999 {
		t.Error("chain must still terminate at the stalling load")
	}
}

func TestExtractChainStencilCoversOneStream(t *testing.T) {
	// One index add feeding four loads: the backward walk from ONE load
	// must include only {add, that load} — the documented coverage gap of
	// the runahead buffer versus PRE.
	r1 := uarch.IntReg(1)
	window := []uarch.Uop{
		mkUop(4, uarch.ClassIntAlu, r1, r1, uarch.RegNone, 0),
		mkUop(8, uarch.ClassLoad, uarch.FPReg(0), r1, uarch.RegNone, 0x10000),
		mkUop(12, uarch.ClassLoad, uarch.FPReg(1), r1, uarch.RegNone, 0x20000),
		mkUop(16, uarch.ClassLoad, uarch.FPReg(2), r1, uarch.RegNone, 0x30000),
		mkUop(20, uarch.ClassLoad, uarch.FPReg(3), r1, uarch.RegNone, 0x40000),
	}
	chain := ExtractChain(window, 12, 32)
	if len(chain) != 2 {
		t.Fatalf("chain = %d µops, want 2", len(chain))
	}
	for _, u := range chain {
		if u.PC != 4 && u.PC != 12 {
			t.Errorf("chain includes unrelated stream PC %#x", u.PC)
		}
	}
}
