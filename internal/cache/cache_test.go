package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/uarch"
)

func smallCache() *Cache {
	return New(Config{Name: "T", SizeBytes: 4 * 1024, Assoc: 4, HitLatency: 2, MSHRs: 4})
}

func TestConfigValidate(t *testing.T) {
	good := Config{Name: "ok", SizeBytes: 32 * 1024, Assoc: 8, HitLatency: 4, MSHRs: 10}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Name: "zero", SizeBytes: 0, Assoc: 1, HitLatency: 1, MSHRs: 1},
		{Name: "oddsize", SizeBytes: 100, Assoc: 1, HitLatency: 1, MSHRs: 1},
		{Name: "nonpow2", SizeBytes: 3 * uarch.LineSize, Assoc: 1, HitLatency: 1, MSHRs: 1},
		{Name: "nomshr", SizeBytes: 1024, Assoc: 1, HitLatency: 1, MSHRs: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q must be rejected", c.Name)
		}
	}
}

func TestMissThenFillThenHit(t *testing.T) {
	c := smallCache()
	addr := uint64(0x1000)
	if hit, _ := c.Lookup(addr, 0, true); hit {
		t.Fatal("cold cache must miss")
	}
	c.Insert(addr, 100, SrcDemand)
	hit, ready := c.Lookup(addr, 10, true)
	if !hit {
		t.Fatal("inserted line must hit")
	}
	if ready != 100 {
		t.Errorf("in-flight line ready=%d, want fillReady=100", ready)
	}
	hit, ready = c.Lookup(addr, 200, true)
	if !hit || ready != 202 {
		t.Errorf("settled line ready=%d, want now+hitlat=202", ready)
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSameLineDifferentOffsetsHit(t *testing.T) {
	c := smallCache()
	c.Insert(0x1000, 0, SrcDemand)
	for _, off := range []uint64{0, 8, 63} {
		if hit, _ := c.Lookup(0x1000+off, 10, true); !hit {
			t.Errorf("offset %d within line must hit", off)
		}
	}
	if hit, _ := c.Lookup(0x1040, 10, true); hit {
		t.Error("next line must miss")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := New(Config{Name: "T", SizeBytes: 4 * uarch.LineSize, Assoc: 4, HitLatency: 1, MSHRs: 1})
	// Single-set cache: 4 ways. Fill 4 lines; touch line0; insert a 5th.
	// Victim must be line1 (the LRU).
	lines := []uint64{0x0, 0x1000, 0x2000, 0x3000} // same set (only one set)
	for _, a := range lines {
		c.Insert(a, 0, SrcDemand)
	}
	c.Lookup(0x0, 5, true) // make line0 MRU
	ev := c.Insert(0x4000, 10, SrcDemand)
	if !ev.Valid || ev.Addr != 0x1000 {
		t.Errorf("evicted %#x, want 0x1000 (LRU)", ev.Addr)
	}
	if !c.Contains(0x0) || c.Contains(0x1000) || !c.Contains(0x4000) {
		t.Error("post-eviction contents wrong")
	}
}

func TestDirtyEvictionWriteback(t *testing.T) {
	c := New(Config{Name: "T", SizeBytes: 2 * uarch.LineSize, Assoc: 2, HitLatency: 1, MSHRs: 1})
	c.Insert(0x0, 0, SrcDemand)
	c.MarkDirty(0x0)
	c.Insert(0x1000, 0, SrcDemand)
	// Insert third line: evicts 0x0 (LRU, dirty).
	ev := c.Insert(0x2000, 0, SrcDemand)
	if !ev.Valid || !ev.Dirty || ev.Addr != 0x0 {
		t.Errorf("eviction = %+v, want dirty victim 0x0", ev)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestMarkDirtyOnAbsentLineIsNoop(t *testing.T) {
	c := smallCache()
	c.MarkDirty(0x5000) // must not panic or create state
	if c.Contains(0x5000) {
		t.Error("MarkDirty must not allocate")
	}
}

func TestInvalidate(t *testing.T) {
	c := smallCache()
	c.Insert(0x1000, 0, SrcDemand)
	c.MarkDirty(0x1000)
	present, dirty := c.Invalidate(0x1000)
	if !present || !dirty {
		t.Errorf("invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if c.Contains(0x1000) {
		t.Error("line still present after invalidate")
	}
	present, _ = c.Invalidate(0x1000)
	if present {
		t.Error("second invalidate must report absent")
	}
}

func TestDoubleInsertKeepsEarlierFill(t *testing.T) {
	c := smallCache()
	c.Insert(0x1000, 500, SrcDemand)
	c.Insert(0x1000, 300, SrcDemand)
	_, ready := c.Lookup(0x1000, 0, true)
	if ready != 300 {
		t.Errorf("ready = %d, want earlier fill 300", ready)
	}
	if c.OccupiedWays(0x1000) != 1 {
		t.Error("double insert must not duplicate the line")
	}
}

func TestPrefetchAccounting(t *testing.T) {
	c := smallCache()
	c.Insert(0x1000, 0, SrcRunahead)
	s := c.Stats()
	if s.PrefetchFills != 1 {
		t.Errorf("prefetch fills = %d", s.PrefetchFills)
	}
	c.Lookup(0x1000, 10, true)
	s = c.Stats()
	if s.PrefetchUseful != 1 {
		t.Errorf("prefetch useful = %d", s.PrefetchUseful)
	}
	// Second demand hit must not double-count usefulness.
	c.Lookup(0x1000, 20, true)
	if c.Stats().PrefetchUseful != 1 {
		t.Error("prefetch usefulness double-counted")
	}
}

func TestHWPrefetchAccounting(t *testing.T) {
	c := smallCache()
	c.Insert(0x1000, 100, SrcHW)
	c.Insert(0x2000, 0, SrcHW)
	s := c.Stats()
	if s.HWPrefFills != 2 || s.PrefetchFills != 0 {
		t.Errorf("HW fills = %d (runahead %d), want 2 (0)", s.HWPrefFills, s.PrefetchFills)
	}
	// Demand hit while the fill is still in flight: useful but late.
	c.Lookup(0x1000, 50, true)
	// Demand hit after the fill settled: useful and timely.
	c.Lookup(0x2000, 50, true)
	s = c.Stats()
	if s.HWPrefUseful != 2 || s.HWPrefLate != 1 {
		t.Errorf("HW useful/late = %d/%d, want 2/1", s.HWPrefUseful, s.HWPrefLate)
	}
	if s.PrefetchUseful != 0 {
		t.Error("HW prefetch hit leaked into runahead usefulness")
	}
	// Second demand hit must not double-count usefulness.
	c.Lookup(0x1000, 200, true)
	if c.Stats().HWPrefUseful != 2 {
		t.Error("HW prefetch usefulness double-counted")
	}
}

func TestPrefetchLookupNotCountedAsDemand(t *testing.T) {
	c := smallCache()
	c.Lookup(0x1000, 0, false)
	if s := c.Stats(); s.Accesses != 0 || s.Misses != 0 {
		t.Errorf("prefetch lookup leaked into demand stats: %+v", s)
	}
}

func TestMSHRAllocAndMerge(t *testing.T) {
	c := smallCache() // 4 MSHRs
	if !c.MSHRAlloc(0x1000, 0, 100, SrcDemand) {
		t.Fatal("first alloc must succeed")
	}
	fill, ok := c.MSHRLookup(0x1040, 0)
	if ok {
		t.Errorf("different line matched MSHR (fill=%d)", fill)
	}
	fill, ok = c.MSHRLookup(0x1008, 0)
	if !ok || fill != 100 {
		t.Errorf("same-line secondary miss: (%d,%v), want (100,true)", fill, ok)
	}
}

func TestMSHRExhaustionAndRecycle(t *testing.T) {
	c := smallCache() // 4 MSHRs
	for i := 0; i < 4; i++ {
		if !c.MSHRAlloc(uint64(i)*0x1000, 0, 100, SrcDemand) {
			t.Fatalf("alloc %d must succeed", i)
		}
	}
	if c.MSHRAlloc(0x9000, 0, 100, SrcDemand) {
		t.Fatal("fifth alloc must fail")
	}
	if c.Stats().MSHRStalls != 1 {
		t.Errorf("MSHR stalls = %d, want 1", c.Stats().MSHRStalls)
	}
	if c.MSHRFree(50) != 0 {
		t.Errorf("free at t=50: %d, want 0", c.MSHRFree(50))
	}
	// After the fills complete the registers recycle.
	if c.MSHRFree(100) != 4 {
		t.Errorf("free at t=100: %d, want 4", c.MSHRFree(100))
	}
	if !c.MSHRAlloc(0x9000, 150, 300, SrcDemand) {
		t.Fatal("alloc after recycle must succeed")
	}
}

func TestMSHRLookupExpired(t *testing.T) {
	c := smallCache()
	c.MSHRAlloc(0x1000, 0, 100, SrcDemand)
	if _, ok := c.MSHRLookup(0x1000, 100); ok {
		t.Error("completed MSHR must not match")
	}
}

// Property: under arbitrary access sequences the number of valid lines per
// set never exceeds associativity, and a just-inserted line is always
// present.
func TestPropertyCapacityAndPresence(t *testing.T) {
	f := func(seed int64, ops []uint16) bool {
		c := New(Config{Name: "P", SizeBytes: 2 * 1024, Assoc: 2, HitLatency: 1, MSHRs: 2})
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			addr := uint64(op) << 6 // line-granular address space
			switch rng.Intn(3) {
			case 0:
				c.Lookup(addr, int64(op), true)
			case 1:
				c.Insert(addr, int64(op), SrcDemand)
				if !c.Contains(addr) {
					return false
				}
			case 2:
				c.MarkDirty(addr)
			}
			if c.OccupiedWays(addr) > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: LRU stack — after touching K distinct lines in a full set, the
// victim of the next insert is never one of the most recently touched
// Assoc-1 lines.
func TestPropertyLRUVictimNotRecent(t *testing.T) {
	f := func(order []uint8) bool {
		c := New(Config{Name: "P", SizeBytes: 4 * uarch.LineSize, Assoc: 4, HitLatency: 1, MSHRs: 1})
		base := []uint64{0x0000, 0x1000, 0x2000, 0x3000}
		for i, a := range base {
			c.Insert(a, int64(i), SrcDemand)
		}
		now := int64(10)
		recent := map[uint64]bool{}
		// Touch three distinct lines; they must survive the next insert.
		touched := 0
		for _, o := range order {
			a := base[int(o)%4]
			if recent[a] {
				continue
			}
			c.Lookup(a, now, true)
			now++
			recent[a] = true
			touched++
			if touched == 3 {
				break
			}
		}
		if touched < 3 {
			return true // not enough distinct touches to constrain the victim
		}
		ev := c.Insert(0x9000, now, SrcDemand)
		return ev.Valid && !recent[ev.Addr]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestResetStats(t *testing.T) {
	c := smallCache()
	c.Lookup(0x0, 0, true)
	c.ResetStats()
	if s := c.Stats(); s.Accesses != 0 || s.Misses != 0 {
		t.Error("ResetStats failed")
	}
}

func TestNumSetsGeometry(t *testing.T) {
	c := New(Config{Name: "T", SizeBytes: 32 * 1024, Assoc: 8, HitLatency: 4, MSHRs: 10})
	if c.NumSets() != 64 {
		t.Errorf("32KB/8-way/64B: sets = %d, want 64", c.NumSets())
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config must panic")
		}
	}()
	New(Config{Name: "bad", SizeBytes: 7, Assoc: 1, HitLatency: 1, MSHRs: 1})
}

// TestMSHRSourceTracksRequester: MSHRs carry the fill source of the
// access that allocated them, and RunaheadInFlight sees a runahead-tagged
// one only while its fill is in flight.
func TestMSHRSourceTracksRequester(t *testing.T) {
	c := New(Config{Name: "t", SizeBytes: 4096, Assoc: 4, HitLatency: 1, MSHRs: 4})
	c.MSHRAlloc(0x1000, 0, 100, SrcRunahead)
	c.MSHRAlloc(0x2000, 0, 100, SrcHW)
	if !c.RunaheadInFlight(0x1000, 50) {
		t.Error("runahead-allocated MSHR not reported in flight")
	}
	if c.RunaheadInFlight(0x2000, 50) {
		t.Error("hardware-prefetch MSHR reported as runahead")
	}
	if c.RunaheadInFlight(0x3000, 50) {
		t.Error("RunaheadInFlight found a miss that was never allocated")
	}
	// Completed fills stop reporting.
	if c.RunaheadInFlight(0x1000, 100) {
		t.Error("RunaheadInFlight reported a completed fill as in flight")
	}
	// The first in-flight MSHR on the line decides: a hardware fill ahead
	// of a runahead one hides it until the hardware fill completes.
	c.MSHRAlloc(0x4000, 0, 80, SrcHW)
	c.MSHRAlloc(0x4000, 0, 90, SrcRunahead)
	if c.RunaheadInFlight(0x4000, 50) {
		t.Error("first in-flight MSHR is a hardware fill, want false")
	}
	if !c.RunaheadInFlight(0x4000, 85) {
		t.Error("hardware fill completed, the runahead fill is next: want true")
	}
}

// TestRunaheadInFlightLine: a tag-present runahead line reports in flight
// until its data arrives, without touching LRU or statistics.
func TestRunaheadInFlightLine(t *testing.T) {
	c := New(Config{Name: "t", SizeBytes: 4096, Assoc: 4, HitLatency: 1, MSHRs: 4})
	c.Insert(0x1000, 200, SrcRunahead)
	before := c.Stats()
	if !c.RunaheadInFlight(0x1000, 100) {
		t.Error("in-flight runahead line not reported")
	}
	if c.RunaheadInFlight(0x1000, 200) {
		t.Error("RunaheadInFlight reported an arrived line as in flight")
	}
	if c.Stats() != before {
		t.Error("RunaheadInFlight perturbed statistics")
	}
	// A demand hit clears the tag: the line no longer filters.
	c.Insert(0x2000, 300, SrcRunahead)
	c.Lookup(0x2000, 100, true)
	if c.RunaheadInFlight(0x2000, 150) {
		t.Error("demanded line still reports runahead in flight")
	}
	// Hardware and demand fills never count, however late they land.
	c.Insert(0x3000, 900, SrcHW)
	c.Insert(0x5000, 900, SrcDemand)
	if c.RunaheadInFlight(0x3000, 250) || c.RunaheadInFlight(0x5000, 250) {
		t.Error("non-runahead line reported as runahead in flight")
	}
}

// TestMSHRProbeMatchesLookupAndFree: the one-pass probe answers what
// MSHRLookup and MSHRFree answer separately.
func TestMSHRProbeMatchesLookupAndFree(t *testing.T) {
	c := smallCache() // 4 MSHRs
	c.MSHRAlloc(0x1000, 0, 100, SrcDemand)
	c.MSHRAlloc(0x2000, 0, 50, SrcDemand)
	if fill, ok, _ := c.MSHRProbe(0x1008, 10); !ok || fill != 100 {
		t.Errorf("probe in flight = (%d,%v), want (100,true)", fill, ok)
	}
	if _, ok, free := c.MSHRProbe(0x3000, 10); ok || free != 2 {
		t.Errorf("probe absent at 10 = (%v, free %d), want (false, 2)", ok, free)
	}
	// 0x2000 completed at 50: it no longer matches and counts as free.
	if _, ok, free := c.MSHRProbe(0x2000, 60); ok || free != 3 {
		t.Errorf("probe completed at 60 = (%v, free %d), want (false, 3)", ok, free)
	}
	// The probe retired it, so not even an earlier cycle sees it.
	if _, ok := c.MSHRLookup(0x2000, 10); ok {
		t.Error("retired MSHR matched again")
	}
}

// TestInsertVictimChoice: an invalid way beats the LRU way.
func TestInsertVictimChoice(t *testing.T) {
	c := New(Config{Name: "T", SizeBytes: 4 * uarch.LineSize, Assoc: 4, HitLatency: 1, MSHRs: 1})
	for _, a := range []uint64{0x0, 0x1000, 0x2000, 0x3000} {
		c.Insert(a, 0, SrcDemand)
	}
	c.Invalidate(0x2000)
	if ev := c.Insert(0x4000, 0, SrcDemand); ev.Valid {
		t.Errorf("insert with a free way evicted %#x", ev.Addr)
	}
	if ev := c.Insert(0x5000, 0, SrcDemand); !ev.Valid || ev.Addr != 0x0 {
		t.Errorf("evicted %+v, want the LRU line 0x0", ev)
	}
}

// TestLifetimeHWPrefSurvivesReset: the throttle feedback counters must
// not reset with the measurement window.
func TestLifetimeHWPrefSurvivesReset(t *testing.T) {
	c := New(Config{Name: "t", SizeBytes: 4096, Assoc: 4, HitLatency: 1, MSHRs: 4})
	c.Insert(0x1000, 50, SrcHW)
	c.Lookup(0x1000, 10, true) // useful and late
	u, l := c.LifetimeHWPref()
	if u != 1 || l != 1 {
		t.Fatalf("lifetime counters = %d,%d, want 1,1", u, l)
	}
	c.ResetStats()
	if c.Stats().HWPrefUseful != 0 {
		t.Error("window stats survived reset")
	}
	if u, l = c.LifetimeHWPref(); u != 1 || l != 1 {
		t.Errorf("lifetime counters reset with the window: %d,%d", u, l)
	}
}
