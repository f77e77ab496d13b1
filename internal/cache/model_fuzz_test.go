package cache

import (
	"testing"

	"repro/internal/uarch"
)

// FuzzCacheModel runs generated operation sequences against the
// structure-of-arrays Cache and against refCache, the array-of-structs
// model it replaced, and requires equal return values, statistics and
// line presence after every operation. Cycle numbers mostly rise, but
// some operations are forward-dated (as the hierarchy probes the L2 and
// L3 ahead of the core cycle) and some backward-dated, which is where
// lazy MSHR retirement and the runahead-fill horizon could diverge.
//
// Each operation takes three bytes: kind and variant, line, cycle step.
// Kind 13 performs no operation; it only repeats the comparisons.
func FuzzCacheModel(f *testing.F) {
	f.Add([]byte{0x02, 3, 40, 0x09, 3, 1, 0x17, 3, 90, 0x19, 3, 2, 0x06, 3, 200})
	f.Add([]byte{0x12, 1, 100, 0x12, 5, 100, 0x12, 9, 100, 0x00, 1, 3, 0xe9, 5, 20, 0xc6, 9, 30})
	f.Add([]byte{1, 0x27, 0x17, 7, 60, 0x17, 11, 60, 0x27, 15, 60, 0x07, 19, 60, 0x08, 0, 1, 0xea, 0, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// The first byte picks the geometry: 4 sets of 1, 2 or 4 ways.
		assoc := 1 << (data[0] % 3)
		cfg := Config{Name: "F", SizeBytes: 4 * assoc * uarch.LineSize, Assoc: assoc, HitLatency: 3, MSHRs: 3}
		got, want := New(cfg), newRef(cfg)
		const lines = 24
		var now int64
		for op := 1; op+2 < len(data); op += 3 {
			kind, variant := data[op]%16, data[op]>>4
			addr := uint64(data[op+1]%lines)<<6 | uint64(data[op+1]/lines)
			step := data[op+2]
			now += int64(step % 8)
			t0 := now
			switch {
			case variant >= 14:
				t0 = now - int64(step%32)
			case variant >= 12:
				t0 = now + int64(step%32)
			}
			fill := t0 + int64(step) - 16
			src := Source(variant % 3)
			switch kind {
			case 0, 1:
				demand := kind == 0
				h1, r1 := got.Lookup(addr, t0, demand)
				h2, r2 := want.Lookup(addr, t0, demand)
				if h1 != h2 || r1 != r2 {
					t.Fatalf("op %d Lookup(%#x, %d, %v) = %v,%d, reference %v,%d", op, addr, t0, demand, h1, r1, h2, r2)
				}
			case 2, 14, 15:
				if e1, e2 := got.Insert(addr, fill, src), want.Insert(addr, fill, src); e1 != e2 {
					t.Fatalf("op %d Insert(%#x, %d, %d) = %+v, reference %+v", op, addr, fill, src, e1, e2)
				}
			case 3:
				got.MarkDirty(addr)
				want.MarkDirty(addr)
			case 4:
				p1, d1 := got.Invalidate(addr)
				p2, d2 := want.Invalidate(addr)
				if p1 != p2 || d1 != d2 {
					t.Fatalf("op %d Invalidate(%#x) = %v,%v, reference %v,%v", op, addr, p1, d1, p2, d2)
				}
			case 5:
				f1, ok1 := got.MSHRLookup(addr, t0)
				f2, ok2 := want.MSHRLookup(addr, t0)
				if f1 != f2 || ok1 != ok2 {
					t.Fatalf("op %d MSHRLookup(%#x, %d) = %d,%v, reference %d,%v", op, addr, t0, f1, ok1, f2, ok2)
				}
			case 6:
				f1, ok1, n1 := got.MSHRProbe(addr, t0)
				f2, ok2, n2 := want.MSHRProbe(addr, t0)
				if f1 != f2 || ok1 != ok2 || n1 != n2 {
					t.Fatalf("op %d MSHRProbe(%#x, %d) = %d,%v,%d, reference %d,%v,%d", op, addr, t0, f1, ok1, n1, f2, ok2, n2)
				}
			case 7:
				if a1, a2 := got.MSHRAlloc(addr, t0, fill, src), want.MSHRAlloc(addr, t0, fill, src); a1 != a2 {
					t.Fatalf("op %d MSHRAlloc(%#x, %d, %d, %d) = %v, reference %v", op, addr, t0, fill, src, a1, a2)
				}
			case 8:
				if n1, n2 := got.MSHRFree(t0), want.MSHRFree(t0); n1 != n2 {
					t.Fatalf("op %d MSHRFree(%d) = %d, reference %d", op, t0, n1, n2)
				}
			case 9:
				if r1, r2 := got.RunaheadInFlight(addr, t0), want.RunaheadInFlight(addr, t0); r1 != r2 {
					t.Fatalf("op %d RunaheadInFlight(%#x, %d) = %v, reference %v", op, addr, t0, r1, r2)
				}
			case 10:
				n1, ok1 := got.NextMSHRRelease(t0)
				n2, ok2 := want.NextMSHRRelease(t0)
				if n1 != n2 || ok1 != ok2 {
					t.Fatalf("op %d NextMSHRRelease(%d) = %d,%v, reference %d,%v", op, t0, n1, ok1, n2, ok2)
				}
			case 11:
				if h1, h2 := got.Holds(addr, t0), want.Holds(addr, t0); h1 != h2 {
					t.Fatalf("op %d Holds(%#x, %d) = %v, reference %v", op, addr, t0, h1, h2)
				}
			case 12:
				got.ResetStats()
				want.ResetStats()
			}
			if s1, s2 := got.Stats(), want.Stats(); s1 != s2 {
				t.Fatalf("op %d (kind %d): stats %+v, reference %+v", op, kind, s1, s2)
			}
			u1, l1 := got.LifetimeHWPref()
			u2, l2 := want.LifetimeHWPref()
			if u1 != u2 || l1 != l2 {
				t.Fatalf("op %d (kind %d): lifetime HW counters %d,%d, reference %d,%d", op, kind, u1, l1, u2, l2)
			}
			for l := uint64(0); l < lines; l++ {
				if c1, c2 := got.Contains(l<<6), want.Contains(l<<6); c1 != c2 {
					t.Fatalf("op %d (kind %d): Contains(%#x) = %v, reference %v", op, kind, l<<6, c1, c2)
				}
			}
			if o1, o2 := got.OccupiedWays(addr), want.OccupiedWays(addr); o1 != o2 {
				t.Fatalf("op %d (kind %d): OccupiedWays(%#x) = %d, reference %d", op, kind, addr, o1, o2)
			}
		}
	})
}

// RunaheadInFlight is the PRE-aware filter's per-level question as the
// hierarchy asked it of this model: a tag-present runahead line still in
// flight, else a runahead-allocated first in-flight MSHR.
func (c *refCache) RunaheadInFlight(addr uint64, now int64) bool {
	if src, ok := c.InFlightSource(addr, now); ok && src == SrcRunahead {
		return true
	}
	src, ok := c.MSHRSource(addr, now)
	return ok && src == SrcRunahead
}

// MSHRProbe is MSHRLookup followed, on a miss, by MSHRFree.
func (c *refCache) MSHRProbe(addr uint64, now int64) (int64, bool, int) {
	if fill, ok := c.MSHRLookup(addr, now); ok {
		return fill, true, 0
	}
	return 0, false, c.MSHRFree(now)
}

// Holds is Contains followed, on a miss, by MSHRLookup.
func (c *refCache) Holds(addr uint64, now int64) bool {
	if c.Contains(addr) {
		return true
	}
	_, ok := c.MSHRLookup(addr, now)
	return ok
}

// refLine is one tag-store entry.
type refLine struct {
	tag       uint64 // full line address (addr >> 6)
	valid     bool
	dirty     bool
	lru       uint64 // larger = more recently used
	fillReady int64  // cycle at which the line's data is usable
	src       Source // who filled the line; demanded lines revert to SrcDemand
}

// refMSHR tracks one outstanding miss. src records who started the fill
// (demand, runahead, hardware prefetch) so the PRE-aware prefetch filter
// can recognize lines the runahead mechanism is already fetching;
// secondary misses merge without retagging.
type refMSHR struct {
	tag       uint64
	fillReady int64
	valid     bool
	src       Source
}

// refCache is the array-of-structs cache model the structure-of-arrays
// Cache replaced, kept verbatim as the fuzz reference.
type refCache struct {
	cfg      Config
	sets     [][]refLine
	setMask  uint64
	lruClock uint64
	mshrs    []refMSHR
	stats    Stats

	// Lifetime hardware-prefetch usefulness counters: the same events as
	// the HWPref* stats fields but never reset by ResetStats. The adaptive
	// throttle's feedback loop reads these — machine behavior must not
	// change when a measurement window opens.
	lifeHWUseful int64
	lifeHWLate   int64
}

// newRef builds a reference cache from cfg.
func newRef(cfg Config) *refCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.SizeBytes / uarch.LineSize / cfg.Assoc
	c := &refCache{
		cfg:     cfg,
		sets:    make([][]refLine, sets),
		setMask: uint64(sets - 1),
		mshrs:   make([]refMSHR, cfg.MSHRs),
	}
	backing := make([]refLine, sets*cfg.Assoc)
	for i := range c.sets {
		c.sets[i] = backing[i*cfg.Assoc : (i+1)*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	return c
}

// Stats returns a copy of the accumulated counters.
func (c *refCache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters (measurement-window start).
func (c *refCache) ResetStats() { c.stats = Stats{} }

func (c *refCache) set(tag uint64) []refLine { return c.sets[tag&c.setMask] }

// Lookup probes for the line containing addr at cycle now.
//
// On a hit it updates LRU state and returns (true, ready) where ready is
// the cycle the data can be consumed (later than now+HitLatency only if
// the line is still in flight). demand=false marks prefetch lookups, which
// are excluded from the demand hit/miss statistics.
func (c *refCache) Lookup(addr uint64, now int64, demand bool) (hit bool, ready int64) {
	tag := addr >> 6
	set := c.set(tag)
	if demand {
		c.stats.Accesses++
	}
	for i := range set {
		ln := &set[i]
		if ln.valid && ln.tag == tag {
			c.lruClock++
			ln.lru = c.lruClock
			if demand {
				c.stats.Hits++
				switch ln.src {
				case SrcRunahead:
					c.stats.PrefetchUseful++
				case SrcHW:
					c.stats.HWPrefUseful++
					c.lifeHWUseful++
					if ln.fillReady > now {
						c.stats.HWPrefLate++
						c.lifeHWLate++
					}
				}
				ln.src = SrcDemand
			}
			ready = now + int64(c.cfg.HitLatency)
			if ln.fillReady > ready {
				ready = ln.fillReady
			}
			return true, ready
		}
	}
	if demand {
		c.stats.Misses++
	}
	return false, 0
}

// Contains reports whether the line holding addr is present, without
// touching LRU or statistics. Used by tests and invariant checks.
func (c *refCache) Contains(addr uint64) bool {
	tag := addr >> 6
	for i := range c.set(tag) {
		ln := &c.set(tag)[i]
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

// Insert installs the line containing addr, choosing an LRU victim if the
// set is full. fillReady is the cycle the new line's data arrives. src
// tags runahead and hardware-prefetch fills for coverage statistics.
func (c *refCache) Insert(addr uint64, fillReady int64, src Source) Eviction {
	tag := addr >> 6
	set := c.set(tag)
	for i := range set {
		ln := &set[i]
		if ln.valid && ln.tag == tag {
			// Already present (two fills raced): keep the earlier data time.
			if fillReady < ln.fillReady {
				ln.fillReady = fillReady
			}
			return Eviction{}
		}
	}
	// Prefer an invalid way, else the true LRU line.
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim == -1 {
		oldest := ^uint64(0)
		for i := range set {
			if set[i].lru < oldest {
				oldest = set[i].lru
				victim = i
			}
		}
	}
	ev := Eviction{}
	v := &set[victim]
	if v.valid {
		ev = Eviction{Valid: true, Addr: v.tag << 6, Dirty: v.dirty}
		c.stats.Evictions++
		if v.dirty {
			c.stats.Writebacks++
		}
	}
	c.lruClock++
	*v = refLine{tag: tag, valid: true, lru: c.lruClock, fillReady: fillReady, src: src}
	switch src {
	case SrcRunahead:
		c.stats.PrefetchFills++
	case SrcHW:
		c.stats.HWPrefFills++
	}
	return ev
}

// MarkDirty flags the line containing addr as modified (store commit).
// It is a no-op if the line is absent.
func (c *refCache) MarkDirty(addr uint64) {
	tag := addr >> 6
	for i := range c.set(tag) {
		ln := &c.set(tag)[i]
		if ln.valid && ln.tag == tag {
			ln.dirty = true
			return
		}
	}
}

// Invalidate drops the line containing addr, returning whether it was
// present and dirty (the caller owns any required writeback).
func (c *refCache) Invalidate(addr uint64) (present, dirty bool) {
	tag := addr >> 6
	for i := range c.set(tag) {
		ln := &c.set(tag)[i]
		if ln.valid && ln.tag == tag {
			present, dirty = true, ln.dirty
			ln.valid = false
			return
		}
	}
	return false, false
}

// --- MSHR management -------------------------------------------------

// MSHRLookup returns the fill-completion cycle for an outstanding miss on
// addr's line, if one exists at cycle now. Secondary misses merge into the
// primary miss via this path.
func (c *refCache) MSHRLookup(addr uint64, now int64) (fillReady int64, ok bool) {
	tag := addr >> 6
	for i := range c.mshrs {
		m := &c.mshrs[i]
		if m.valid && m.tag == tag {
			if m.fillReady <= now {
				m.valid = false // lazily retire completed entries
				continue
			}
			return m.fillReady, true
		}
	}
	return 0, false
}

// MSHRAlloc reserves an MSHR for a new miss on addr's line, which will
// complete at fillReady, tagged with the source that started the fill.
// It returns false when all MSHRs are busy, in which case the access must
// be retried later (modelled as an MSHR stall).
func (c *refCache) MSHRAlloc(addr uint64, now, fillReady int64, src Source) bool {
	for i := range c.mshrs {
		m := &c.mshrs[i]
		if !m.valid || m.fillReady <= now {
			*m = refMSHR{tag: addr >> 6, fillReady: fillReady, valid: true, src: src}
			return true
		}
	}
	c.stats.MSHRStalls++
	return false
}

// MSHRSource returns the fill source of the outstanding miss on addr's
// line at cycle now, if one exists. Unlike MSHRLookup it does not retire
// completed entries (it is a pure probe used by the PRE-aware prefetch
// filter, which must not perturb state).
func (c *refCache) MSHRSource(addr uint64, now int64) (Source, bool) {
	tag := addr >> 6
	for i := range c.mshrs {
		m := &c.mshrs[i]
		if m.valid && m.tag == tag && m.fillReady > now {
			return m.src, true
		}
	}
	return SrcDemand, false
}

// InFlightSource returns the fill source of addr's line when the line is
// tag-present but its data has not yet arrived (fillReady > now), without
// touching LRU or statistics. The resource-reservation timing model
// installs lines at miss issue, so "who is currently fetching this line"
// lives on the line itself; the PRE-aware prefetch filter probes it to
// recognize in-flight runahead fills.
func (c *refCache) InFlightSource(addr uint64, now int64) (Source, bool) {
	tag := addr >> 6
	for i := range c.set(tag) {
		ln := &c.set(tag)[i]
		if ln.valid && ln.tag == tag && ln.fillReady > now {
			return ln.src, true
		}
	}
	return SrcDemand, false
}

// NextMSHRRelease returns the earliest cycle strictly after now at which
// an occupied MSHR's fill completes (freeing the entry and changing the
// outcome of MSHRFree/MSHRLookup/MSHRAlloc). ok=false means no occupied
// entry releases after now. The core's cycle skipper uses this to bound
// how far a retrying (MSHR-blocked) access can be fast-forwarded.
func (c *refCache) NextMSHRRelease(now int64) (int64, bool) {
	var best int64
	ok := false
	for i := range c.mshrs {
		m := &c.mshrs[i]
		if m.valid && m.fillReady > now && (!ok || m.fillReady < best) {
			best = m.fillReady
			ok = true
		}
	}
	return best, ok
}

// LifetimeHWPref returns the never-reset hardware-prefetch usefulness
// counters (demand hits on HW-prefetched lines, and how many of those
// still waited on the fill) — the throttle feedback inputs.
func (c *refCache) LifetimeHWPref() (useful, late int64) {
	return c.lifeHWUseful, c.lifeHWLate
}

// MSHRFree counts the MSHRs available at cycle now.
func (c *refCache) MSHRFree(now int64) int {
	free := 0
	for i := range c.mshrs {
		m := &c.mshrs[i]
		if !m.valid || m.fillReady <= now {
			free++
		}
	}
	return free
}

// OccupiedWays counts valid lines in the set holding addr (for tests and
// invariant checks).
func (c *refCache) OccupiedWays(addr uint64) int {
	n := 0
	for i := range c.set(addr >> 6) {
		if c.set(addr >> 6)[i].valid {
			n++
		}
	}
	return n
}
