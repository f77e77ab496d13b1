package core

import (
	"math/bits"

	"repro/internal/rename"
	"repro/internal/uarch"
)

// uopState tracks a µop's progress through the back end.
type uopState uint8

const (
	// sWaiting: dispatched, sitting in the issue queue.
	sWaiting uopState = iota
	// sIssued: executing; a completion event is scheduled.
	sIssued
	// sDone: execution complete (commit-eligible for ROB entries).
	sDone
)

// recKind distinguishes the two µop spaces.
type recKind uint8

const (
	// kROB: a normal-path µop occupying a reorder-buffer slot. RA and
	// RA-buffer runahead µops are also kROB (they pseudo-retire through
	// the ROB).
	kROB recKind = iota
	// kPRE: a PRE runahead µop — executes without a ROB entry, tracked in
	// the transient pool and reclaimed via the PRDQ.
	kPRE
)

// uopFlags packs a slot's boolean state into one byte.
type uopFlags uint8

const (
	// fMispredicted: fetch-time misprediction flag.
	fMispredicted uopFlags = 1 << iota
	// fInvResult: completion publishes poison, not data.
	fInvResult
	// fInRunahead: executed under any runahead episode.
	fInRunahead
	// fLQHeld: load-queue entry held.
	fLQHeld
)

// slotMeta is the hot half of a µop slot: the one 8-byte word the wake-up,
// completion-event and issue-scan probes touch. Keeping it in its own
// densely packed array (struct-of-arrays with uopRec) means a wake-up or a
// stale-event check reads 8 bytes instead of a whole record, and bulk
// scans (commit run, flush, runahead-entry conversion) walk 8 slots per
// cache line.
type slotMeta struct {
	gen     uint32   // slot generation, guards stale events/IQ refs
	st      uopState // back-end progress
	srcWait uint8    // source pregs still pending (0 = issueable)
	flags   uopFlags
	_       uint8
}

// uopRec is the cold half of a µop slot: everything the back end needs
// after dispatch that is not probed per wake-up. The fetched µop itself is
// not retained — only the fields the issue/complete/commit paths read
// (the full Uop stays resolvable through the trace stream by seq).
type uopRec struct {
	seq     int64
	pc      uint64
	addr    uint64 // loads/stores: effective address
	readyAt int64  // completion cycle once issued
	prdq    int64  // PRDQ ticket (kPRE only; -1 = none)
	out     rename.Out
	sqIdx   int32 // stores: SQ slot; otherwise -1
	class   uarch.Class
	dst     uarch.Reg // architectural destination (RegNone if none)
	size    uint8     // loads/stores: access size
}

func (r *uopRec) isLoad() bool  { return r.class == uarch.ClassLoad }
func (r *uopRec) isStore() bool { return r.class == uarch.ClassStore }
func (r *uopRec) hasDst() bool  { return r.dst != uarch.RegNone }

// --- ROB -----------------------------------------------------------------

// rob is a ring buffer of µop slots in struct-of-arrays layout.
type rob struct {
	meta       []slotMeta
	rec        []uopRec
	head, size int
}

func newROB(n int) *rob {
	return &rob{meta: make([]slotMeta, n), rec: make([]uopRec, n)}
}

func (r *rob) full() bool  { return r.size == len(r.meta) }
func (r *rob) empty() bool { return r.size == 0 }
func (r *rob) len() int    { return r.size }
func (r *rob) cap() int    { return len(r.meta) }

// push allocates the tail slot and returns its index.
func (r *rob) push() int {
	idx := r.head + r.size
	if idx >= len(r.meta) {
		idx -= len(r.meta)
	}
	r.size++
	return idx
}

// headIdx returns the index of the oldest entry.
func (r *rob) headIdx() int { return r.head }

// pop releases the head slot.
func (r *rob) pop() {
	r.meta[r.head].gen++ // invalidate stale references
	r.head++
	if r.head == len(r.meta) {
		r.head = 0
	}
	r.size--
}

// at returns the i-th oldest entry's index.
func (r *rob) at(i int) int {
	idx := r.head + i
	if idx >= len(r.meta) {
		idx -= len(r.meta)
	}
	return idx
}

// flush drops everything, invalidating all slots.
func (r *rob) flush() {
	for i := range r.meta {
		r.meta[i].gen++
	}
	r.head, r.size = 0, 0
}

// --- PRE transient pool ---------------------------------------------------

// prePool holds PRE runahead µops (no ROB slot). Slots are recycled via a
// free list; generations invalidate stale references on reuse and flush.
type prePool struct {
	meta  []slotMeta
	rec   []uopRec
	free  []int
	inUse []bool
	live  int
}

func newPrePool(n int) *prePool {
	p := &prePool{
		meta:  make([]slotMeta, n),
		rec:   make([]uopRec, n),
		free:  make([]int, 0, n),
		inUse: make([]bool, n),
	}
	for i := n - 1; i >= 0; i-- {
		p.free = append(p.free, i)
	}
	return p
}

func (p *prePool) alloc() (int, bool) {
	if len(p.free) == 0 {
		return 0, false
	}
	idx := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.inUse[idx] = true
	p.live++
	return idx, true
}

func (p *prePool) release(idx int) {
	p.meta[idx].gen++
	p.free = append(p.free, idx)
	p.inUse[idx] = false
	p.live--
}

// flush releases every live slot.
func (p *prePool) flush() {
	if p.live == 0 {
		return
	}
	for i := range p.inUse {
		if p.inUse[i] {
			p.release(i)
		}
	}
}

// --- issue queue -----------------------------------------------------------

// uopRef names one in-flight µop by slot and generation (a stale ref to a
// squashed µop fails the generation check). It serves both the waiter
// lists of a physical register and the ready list. It carries the µop's
// seq, so a wake-up files the µop on the seq-ordered ready list without
// touching the cold record.
type uopRef struct {
	seq  int64
	gen  uint32
	slot int32
	kind recKind
}

// issueQueue tracks issue-queue occupancy plus the program-ordered list
// of *ready* waiting µops. Entries with pending sources are represented
// only by their waiter-list registrations (Core.waiters) and by the
// occupancy count; they join the ready list when their last source
// completes. This keeps the per-cycle issue scan proportional to the
// handful of issueable µops instead of the whole 92-entry queue.
type issueQueue struct {
	ready  []uopRef // srcWait==0 waiting entries, seq-ascending
	count  int      // all waiting entries (ready + source-pending)
	preCnt int      // of those, kPRE transients (PRE-exit accounting)
	cap    int
}

func newIQ(n int) *issueQueue { return &issueQueue{ready: make([]uopRef, 0, n), cap: n} }

func (q *issueQueue) full() bool     { return q.count >= q.cap }
func (q *issueQueue) len() int       { return q.count }
func (q *issueQueue) freeSlots() int { return q.cap - q.count }

// add admits one waiting µop (ready or not) into the queue's occupancy.
func (q *issueQueue) add(kind recKind) {
	q.count++
	if kind == kPRE {
		q.preCnt++
	}
}

// issued releases one entry's occupancy (it left the queue by issuing).
func (q *issueQueue) issued(kind recKind) {
	q.count--
	if kind == kPRE {
		q.preCnt--
	}
}

// markReady files a µop whose sources are all available, keeping the
// ready list seq-sorted. Dispatch appends in program order (fast path);
// wake-ups insert older µops by binary search.
func (q *issueQueue) markReady(r uopRef) {
	n := len(q.ready)
	if n == 0 || q.ready[n-1].seq < r.seq {
		q.ready = append(q.ready, r)
		return
	}
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if q.ready[mid].seq < r.seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q.ready = append(q.ready, uopRef{})
	copy(q.ready[lo+1:], q.ready[lo:])
	q.ready[lo] = r
}

// dropPRE removes every kPRE entry (PRE runahead exit: the transients are
// squashed wholesale; pending ones are gen-guarded in the waiter lists).
func (q *issueQueue) dropPRE() {
	out := q.ready[:0]
	for _, r := range q.ready {
		if r.kind == kROB {
			out = append(out, r)
		}
	}
	q.ready = out
	q.count -= q.preCnt
	q.preCnt = 0
}

func (q *issueQueue) clear() {
	q.ready = q.ready[:0]
	q.count, q.preCnt = 0, 0
}

// --- store queue ------------------------------------------------------------

// sqEntry is one store-queue slot, also serving as the post-commit write
// buffer entry until the store drains to the L1D.
type sqEntry struct {
	valid     bool
	seq       int64
	addr      uint64
	size      uint8
	dataReady bool
	committed bool
	runahead  bool // pseudo-retired runahead store: never drains
}

// storeQueue is a program-ordered ring of stores, with a counting Bloom
// filter over the cache lines the live stores touch. Most loads alias no
// in-flight store; the filter rejects them in O(1) instead of the
// youngest-first overlap scan, which showed up as a flat per-load cost.
type storeQueue struct {
	e          []sqEntry
	head, size int
	bloomSet   uint64     // bit b set iff bloomCnt[b] > 0
	bloomCnt   [64]uint16 // live stores hashing to each bucket
}

func newSQ(n int) *storeQueue { return &storeQueue{e: make([]sqEntry, n)} }

func (s *storeQueue) full() bool { return s.size == len(s.e) }
func (s *storeQueue) len() int   { return s.size }

// bloomBits returns the filter mask for the cache lines [addr, addr+size)
// touches. Byte-range overlap implies a shared line, so the filter has no
// false negatives.
func bloomBits(addr uint64, size uint8) uint64 {
	first := addr >> 6
	last := (addr + uint64(size) - 1) >> 6
	b := uint64(1) << ((first * 0x9e3779b97f4a7c15) >> 58)
	if last != first {
		b |= uint64(1) << ((last * 0x9e3779b97f4a7c15) >> 58)
	}
	return b
}

func (s *storeQueue) bloomAdd(addr uint64, size uint8) {
	b := bloomBits(addr, size)
	s.bloomSet |= b
	for b != 0 {
		s.bloomCnt[bits.TrailingZeros64(b)]++
		b &= b - 1
	}
}

func (s *storeQueue) bloomRemove(addr uint64, size uint8) {
	b := bloomBits(addr, size)
	for b != 0 {
		i := bits.TrailingZeros64(b)
		s.bloomCnt[i]--
		if s.bloomCnt[i] == 0 {
			s.bloomSet &^= 1 << i
		}
		b &= b - 1
	}
}

// push appends a store, returning its slot index.
func (s *storeQueue) push(seq int64, addr uint64, size uint8, runahead bool) int {
	idx := s.head + s.size
	if idx >= len(s.e) {
		idx -= len(s.e)
	}
	s.e[idx] = sqEntry{valid: true, seq: seq, addr: addr, size: size, runahead: runahead}
	s.bloomAdd(addr, size)
	s.size++
	return idx
}

// forwardFrom finds the youngest store older than seq whose range overlaps
// [addr, addr+size). It returns (found, dataReady).
func (s *storeQueue) forwardFrom(seq int64, addr uint64, size uint8) (bool, bool) {
	if s.size == 0 || s.bloomSet&bloomBits(addr, size) == 0 {
		return false, false
	}
	idx := s.head + s.size - 1
	if idx >= len(s.e) {
		idx -= len(s.e)
	}
	for i := s.size - 1; i >= 0; i-- {
		e := &s.e[idx]
		if e.valid && e.seq < seq &&
			addr < e.addr+uint64(e.size) && e.addr < addr+uint64(size) {
			return true, e.dataReady
		}
		idx--
		if idx < 0 {
			idx = len(s.e) - 1
		}
	}
	return false, false
}

// drainHead pops completed head entries; the caller drains each to memory.
// stop draining when fn returns false (e.g. MSHR rejection).
func (s *storeQueue) drainHead(fn func(*sqEntry) bool) {
	for s.size > 0 {
		e := &s.e[s.head]
		if !e.committed {
			return
		}
		if !e.runahead && !fn(e) {
			return
		}
		e.valid = false
		s.bloomRemove(e.addr, e.size)
		s.head++
		if s.head == len(s.e) {
			s.head = 0
		}
		s.size--
	}
}

// dropYoungerThan removes all stores with seq >= cutoff (flush).
func (s *storeQueue) dropYoungerThan(cutoff int64) {
	for s.size > 0 {
		tail := s.head + s.size - 1
		if tail >= len(s.e) {
			tail -= len(s.e)
		}
		if s.e[tail].seq < cutoff {
			return
		}
		s.e[tail].valid = false
		s.bloomRemove(s.e[tail].addr, s.e[tail].size)
		s.size--
	}
}

// rebuildBloom recomputes the filter from the live entries (snapshot
// restore replaces the ring contents wholesale).
func (s *storeQueue) rebuildBloom() {
	s.bloomSet = 0
	s.bloomCnt = [64]uint16{}
	idx := s.head
	for i := 0; i < s.size; i++ {
		if s.e[idx].valid {
			s.bloomAdd(s.e[idx].addr, s.e[idx].size)
		}
		idx++
		if idx == len(s.e) {
			idx = 0
		}
	}
}

// --- completion events --------------------------------------------------

// completion schedules a µop's execution finish.
type completion struct {
	cycle int64
	gen   uint32
	slot  int32
	kind  recKind
}

// eventQueue schedules completions. Nearly every completion is short
// (ALU 1 cycle, cache hits up to ~42 cycles), so near events go into a
// 64-slot calendar ring — O(1) schedule and pop, no heap churn — and only
// far events (DRAM-latency fills) use a hand-rolled min-heap. Same-cycle
// events carry no ordering contract (completion effects within a cycle
// are commutative; the differential and golden tests pin this).
//
// Slot aliasing is safe because events are always drained at their exact
// cycle: a slot can only hold one cycle's events at a time (a second
// cycle mapping to the same slot would be ≥ 64 cycles out, which is far).
type eventQueue struct {
	near    [eventRing][]completion
	nearCnt int
	far     eventHeap
}

const eventRing = 64

// schedule files a completion due at c.cycle, seen from cycle now.
func (q *eventQueue) schedule(now int64, c completion) {
	if c.cycle-now < eventRing {
		q.near[c.cycle&(eventRing-1)] = append(q.near[c.cycle&(eventRing-1)], c)
		q.nearCnt++
		return
	}
	q.far.push(c)
}

// popDue removes one event due at now, if any.
func (q *eventQueue) popDue(now int64) (completion, bool) {
	if q.nearCnt > 0 {
		slot := &q.near[now&(eventRing-1)]
		if n := len(*slot); n > 0 {
			c := (*slot)[n-1]
			*slot = (*slot)[:n-1]
			q.nearCnt--
			return c, true
		}
	}
	if len(q.far) > 0 && q.far[0].cycle <= now {
		return q.far.pop(), true
	}
	return completion{}, false
}

// nextAt returns the cycle of the earliest pending event at or after now,
// or ok=false when the queue is empty.
func (q *eventQueue) nextAt(now int64) (int64, bool) {
	best := int64(0)
	ok := false
	if q.nearCnt > 0 {
		for d := int64(0); d < eventRing; d++ {
			slot := q.near[(now+d)&(eventRing-1)]
			if len(slot) > 0 {
				best, ok = slot[0].cycle, true
				break
			}
		}
	}
	if len(q.far) > 0 && (!ok || q.far[0].cycle < best) {
		best, ok = q.far[0].cycle, true
	}
	return best, ok
}

func (q *eventQueue) len() int { return q.nearCnt + len(q.far) }

// eventHeap is a hand-rolled min-heap of completions ordered by cycle
// (no container/heap: interface boxing would allocate per event).
type eventHeap []completion

// push adds a completion (sift-up).
func (h *eventHeap) push(c completion) {
	*h = append(*h, c)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].cycle <= s[i].cycle {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

// pop removes the minimum (sift-down).
func (h *eventHeap) pop() completion {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s[l].cycle < s[min].cycle {
			min = l
		}
		if r < n && s[r].cycle < s[min].cycle {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// --- functional units -----------------------------------------------------

// Functional-unit pool indices (classPool maps classes onto them).
const (
	puALU = iota
	puFPU
	puLoad
	puStore
	puBranch
	numPools
)

// classPool maps every µop class to its issue-port pool, replacing the
// per-issue class switch with one table load.
var classPool = [uarch.NumClasses]uint8{
	uarch.ClassNop:    puALU,
	uarch.ClassIntAlu: puALU,
	uarch.ClassIntMul: puALU,
	uarch.ClassIntDiv: puALU,
	uarch.ClassFPAdd:  puFPU,
	uarch.ClassFPMul:  puFPU,
	uarch.ClassFPDiv:  puFPU,
	uarch.ClassLoad:   puLoad,
	uarch.ClassStore:  puStore,
	uarch.ClassBranch: puBranch,
	uarch.ClassJump:   puBranch,
	uarch.ClassCall:   puBranch,
	uarch.ClassReturn: puBranch,
}

// classLatency caches Class.Latency as a table (the method is a switch).
var classLatency = func() (t [uarch.NumClasses]int64) {
	for c := uarch.Class(0); c < uarch.NumClasses; c++ {
		t[c] = int64(c.Latency())
	}
	return
}()

// fuPools models per-cycle issue capacity per unit pool, plus unpipelined
// divide units.
type fuPools struct {
	caps                         [numPools]int32
	use                          [numPools]int32
	idivBusyUntil, fdivBusyUntil int64
}

func newFU(cfg *Config) *fuPools {
	f := &fuPools{}
	f.caps[puALU] = int32(cfg.IntALU)
	f.caps[puFPU] = int32(cfg.FPU)
	f.caps[puLoad] = int32(cfg.LoadPorts)
	f.caps[puStore] = int32(cfg.StorePorts)
	f.caps[puBranch] = int32(cfg.BranchUnits)
	return f
}

// newCycle resets the per-cycle counters.
func (f *fuPools) newCycle() { f.use = [numPools]int32{} }

// nextDivFree returns the earliest cycle strictly after now at which an
// unpipelined divide unit frees up (ok=false when both are already free).
// A ready divide µop blocked on a busy unit retries identically until
// then.
func (f *fuPools) nextDivFree(now int64) (int64, bool) {
	var best int64
	ok := false
	if f.idivBusyUntil > now {
		best, ok = f.idivBusyUntil, true
	}
	if f.fdivBusyUntil > now && (!ok || f.fdivBusyUntil < best) {
		best, ok = f.fdivBusyUntil, true
	}
	return best, ok
}

// tryIssue consumes capacity for class c at cycle now; reports acceptance.
func (f *fuPools) tryIssue(c uarch.Class, now int64) bool {
	if int(c) >= len(classPool) {
		return false
	}
	p := classPool[c]
	if f.use[p] >= f.caps[p] {
		return false
	}
	switch c {
	case uarch.ClassIntDiv:
		if f.idivBusyUntil > now {
			return false
		}
		f.idivBusyUntil = now + classLatency[uarch.ClassIntDiv]
	case uarch.ClassFPDiv:
		if f.fdivBusyUntil > now {
			return false
		}
		f.fdivBusyUntil = now + classLatency[uarch.ClassFPDiv]
	}
	f.use[p]++
	return true
}
