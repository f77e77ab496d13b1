// Package cache implements the set-associative cache model used at every
// level of the simulated memory hierarchy (L1I, L1D, L2, L3).
//
// A Cache is a passive tag store with LRU replacement plus a bank of MSHRs
// (miss-status holding registers) that bound the number of outstanding
// misses at that level. The multi-level access protocol — walking misses
// down the hierarchy and filling lines back up — lives in package mem;
// this package only answers "is this line here, when is its data ready,
// and is there an MSHR free to go fetch it".
//
// Timing model: a line can be inserted before its data has physically
// arrived (tag-allocated on miss issue). Each line records FillReady, the
// cycle its data becomes usable; a subsequent hit to an in-flight line
// completes at max(now + hitLatency, FillReady). This resource-reservation
// style avoids an event queue while preserving overlap and contention.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/uarch"
)

// Config describes one cache level.
type Config struct {
	// Name labels the cache in statistics output (e.g. "L1D").
	Name string
	// SizeBytes is the total capacity. Must be a power-of-two multiple of
	// Assoc*LineSize.
	SizeBytes int
	// Assoc is the set associativity.
	Assoc int
	// HitLatency is the lookup latency in core cycles.
	HitLatency int
	// MSHRs is the number of outstanding misses supported.
	MSHRs int
}

// Validate checks the configuration for internal consistency.
func (c *Config) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.MSHRs <= 0 || c.HitLatency < 0 {
		return fmt.Errorf("cache %s: non-positive geometry", c.Name)
	}
	lines := c.SizeBytes / uarch.LineSize
	if lines*uarch.LineSize != c.SizeBytes {
		return fmt.Errorf("cache %s: size %d not a multiple of line size", c.Name, c.SizeBytes)
	}
	sets := lines / c.Assoc
	if sets*c.Assoc != lines {
		return fmt.Errorf("cache %s: %d lines not divisible by assoc %d", c.Name, lines, c.Assoc)
	}
	if bits.OnesCount(uint(sets)) != 1 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Source tags who installed a line: demand traffic, a runahead-execution
// prefetch, or a hardware prefetcher. The tag drives the per-source
// usefulness statistics (runahead coverage vs. hardware-prefetcher
// accuracy) and is cleared on the first demand hit.
type Source uint8

// Fill sources.
const (
	// SrcDemand marks demand fills (loads, fetches, write-allocates).
	SrcDemand Source = iota
	// SrcRunahead marks runahead-execution prefetch fills.
	SrcRunahead
	// SrcHW marks hardware-prefetcher fills (internal/prefetch).
	SrcHW
)

// invalidTag marks an empty way in the tag store and a free MSHR. Real
// tags are line addresses (addr >> 6), so it never matches one.
const invalidTag = ^uint64(0)

// Stats aggregates the per-level counters.
type Stats struct {
	Accesses       int64 // demand lookups
	Hits           int64
	Misses         int64
	PrefetchFills  int64 // lines installed by runahead prefetches
	PrefetchUseful int64 // demand hits on runahead-prefetched lines
	HWPrefFills    int64 // lines installed by the hardware prefetcher
	HWPrefUseful   int64 // demand hits on hardware-prefetched lines
	HWPrefLate     int64 // of those, hits that still waited on the fill
	Evictions      int64
	Writebacks     int64 // dirty evictions
	MSHRStalls     int64 // allocation attempts rejected for lack of MSHRs
}

// Cache is one level of the hierarchy. The zero value is not usable; use New.
//
// The tag store and the MSHRs are structures of arrays. Way w of set s
// lives at index s*assoc+w of every tag-store array, so a probe scans one
// contiguous run of tags and touches the other arrays only on a match.
type Cache struct {
	cfg      Config
	setMask  uint64
	lruClock uint64

	tags      []uint64 // line address (addr >> 6); invalidTag for an empty way
	lru       []uint64 // larger = more recently used
	fillReady []int64  // cycle at which the line's data is usable
	src       []Source // who filled the line; demanded lines revert to SrcDemand
	dirty     []bool

	// Each MSHR tracks one outstanding miss: its line (invalidTag when the
	// register is free), the cycle its fill completes, and who started it
	// (demand, runahead, hardware prefetch) so the PRE-aware prefetch
	// filter can recognize lines the runahead mechanism is already
	// fetching. Secondary misses merge without retagging.
	mshrTag  []uint64
	mshrFill []int64
	mshrSrc  []Source

	// raHorizon bounds every runahead-tagged fill: no line or MSHR tagged
	// SrcRunahead completes after it. From raHorizon on, RunaheadInFlight
	// is false without a scan — always so in a machine that never runs
	// ahead, and between runahead episodes once their fills land.
	raHorizon int64

	stats Stats

	// Lifetime hardware-prefetch usefulness counters: the same events as
	// the HWPref* stats fields but never reset by ResetStats. The adaptive
	// throttle's feedback loop reads these — machine behavior must not
	// change when a measurement window opens.
	lifeHWUseful int64
	lifeHWLate   int64
}

// New builds a cache from cfg, panicking on invalid geometry (configuration
// errors are programming errors in this simulator, caught by Validate in
// the public API layer first).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lines := cfg.SizeBytes / uarch.LineSize
	c := &Cache{
		cfg:       cfg,
		setMask:   uint64(lines/cfg.Assoc - 1),
		tags:      make([]uint64, lines),
		lru:       make([]uint64, lines),
		fillReady: make([]int64, lines),
		src:       make([]Source, lines),
		dirty:     make([]bool, lines),
		mshrTag:   make([]uint64, cfg.MSHRs),
		mshrFill:  make([]int64, cfg.MSHRs),
		mshrSrc:   make([]Source, cfg.MSHRs),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	for i := range c.mshrTag {
		c.mshrTag[i] = invalidTag
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters (measurement-window start).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Counters returns the live counters; ResetStats zeroes them in place.
func (c *Cache) Counters() *Stats { return &c.stats }

// HitLatency returns the configured lookup latency.
func (c *Cache) HitLatency() int { return c.cfg.HitLatency }

// setBase returns the index of way 0 of the set holding tag.
//
//sim:pure index arithmetic only
func (c *Cache) setBase(tag uint64) int { return int(tag&c.setMask) * c.cfg.Assoc }

// find returns the tag-store index of tag's line, or -1 when it is absent.
//
//sim:pure
func (c *Cache) find(tag uint64) int {
	base := c.setBase(tag)
	for i, t := range c.tags[base : base+c.cfg.Assoc] {
		if t == tag {
			return base + i
		}
	}
	return -1
}

// Lookup probes for the line containing addr at cycle now.
//
// On a hit it updates LRU state and returns (true, ready) where ready is
// the cycle the data can be consumed (later than now+HitLatency only if
// the line is still in flight). demand=false marks prefetch lookups, which
// are excluded from the demand hit/miss statistics.
func (c *Cache) Lookup(addr uint64, now int64, demand bool) (hit bool, ready int64) {
	if demand {
		c.stats.Accesses++
	}
	i := c.find(addr >> 6)
	if i < 0 {
		if demand {
			c.stats.Misses++
		}
		return false, 0
	}
	c.lruClock++
	c.lru[i] = c.lruClock
	if demand {
		c.stats.Hits++
		switch c.src[i] {
		case SrcRunahead:
			c.stats.PrefetchUseful++
		case SrcHW:
			c.stats.HWPrefUseful++
			c.lifeHWUseful++
			if c.fillReady[i] > now {
				c.stats.HWPrefLate++
				c.lifeHWLate++
			}
		}
		c.src[i] = SrcDemand
	}
	ready = now + int64(c.cfg.HitLatency)
	if c.fillReady[i] > ready {
		ready = c.fillReady[i]
	}
	return true, ready
}

// Contains reports whether the line holding addr is present, without
// touching LRU or statistics.
//
//sim:pure
func (c *Cache) Contains(addr uint64) bool { return c.find(addr>>6) >= 0 }

// Holds reports whether the line holding addr is present or has a fill
// outstanding at cycle now: the redundancy test for a prefetch into this
// level. It is Contains followed, only on a miss, by MSHRLookup, whose
// lazy retirement it shares.
func (c *Cache) Holds(addr uint64, now int64) bool {
	if c.Contains(addr) {
		return true
	}
	_, ok := c.MSHRLookup(addr, now)
	return ok
}

// Eviction describes the victim displaced by an Insert.
type Eviction struct {
	// Valid is true when a line was actually displaced.
	Valid bool
	// Addr is the victim's line-aligned byte address.
	Addr uint64
	// Dirty is true when the victim must be written back.
	Dirty bool
}

// Insert installs the line containing addr, choosing an LRU victim if the
// set is full. fillReady is the cycle the new line's data arrives. src
// tags runahead and hardware-prefetch fills for coverage statistics.
func (c *Cache) Insert(addr uint64, fillReady int64, src Source) Eviction {
	tag := addr >> 6
	base := c.setBase(tag)
	// One pass finds a present copy, the first invalid way and the first
	// least-recently-used way; an invalid way wins over the LRU one.
	empty, victim := -1, -1
	oldest := ^uint64(0)
	for i := base; i < base+c.cfg.Assoc; i++ {
		switch t := c.tags[i]; {
		case t == tag:
			// Already present (two fills raced): keep the earlier data time.
			if fillReady < c.fillReady[i] {
				c.fillReady[i] = fillReady
			}
			return Eviction{}
		case t == invalidTag:
			if empty < 0 {
				empty = i
			}
		case c.lru[i] < oldest:
			oldest, victim = c.lru[i], i
		}
	}
	ev := Eviction{}
	if empty >= 0 {
		victim = empty
	} else {
		ev = Eviction{Valid: true, Addr: c.tags[victim] << 6, Dirty: c.dirty[victim]}
		c.stats.Evictions++
		if ev.Dirty {
			c.stats.Writebacks++
		}
	}
	c.lruClock++
	c.tags[victim] = tag
	c.lru[victim] = c.lruClock
	c.fillReady[victim] = fillReady
	c.src[victim] = src
	c.dirty[victim] = false
	switch src {
	case SrcRunahead:
		c.stats.PrefetchFills++
		c.raHorizon = max(c.raHorizon, fillReady)
	case SrcHW:
		c.stats.HWPrefFills++
	}
	return ev
}

// MarkDirty flags the line containing addr as modified (store commit).
// It is a no-op if the line is absent.
func (c *Cache) MarkDirty(addr uint64) {
	if i := c.find(addr >> 6); i >= 0 {
		c.dirty[i] = true
	}
}

// Invalidate drops the line containing addr, returning whether it was
// present and dirty (the caller owns any required writeback).
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	i := c.find(addr >> 6)
	if i < 0 {
		return false, false
	}
	c.tags[i] = invalidTag
	return true, c.dirty[i]
}

// --- MSHR management -------------------------------------------------

// MSHRProbe is MSHRLookup and MSHRFree in one pass. When addr's line has
// an outstanding miss at cycle now it returns the fill-completion cycle
// and ok=true (free is then not counted); otherwise it returns the number
// of MSHRs available at now. Completed entries for the line are lazily
// retired exactly as MSHRLookup retires them.
func (c *Cache) MSHRProbe(addr uint64, now int64) (fillReady int64, ok bool, free int) {
	tag := addr >> 6
	for i, t := range c.mshrTag {
		switch {
		case t == tag:
			if c.mshrFill[i] > now {
				return c.mshrFill[i], true, 0
			}
			c.mshrTag[i] = invalidTag // lazily retire completed entries
			free++
		case t == invalidTag || c.mshrFill[i] <= now:
			free++
		}
	}
	return 0, false, free
}

// MSHRLookup returns the fill-completion cycle for an outstanding miss on
// addr's line, if one exists at cycle now. Secondary misses merge into the
// primary miss via this path.
func (c *Cache) MSHRLookup(addr uint64, now int64) (fillReady int64, ok bool) {
	fillReady, ok, _ = c.MSHRProbe(addr, now)
	return fillReady, ok
}

// MSHRAlloc reserves an MSHR for a new miss on addr's line, which will
// complete at fillReady, tagged with the source that started the fill.
// It returns false when all MSHRs are busy, in which case the access must
// be retried later (modelled as an MSHR stall).
func (c *Cache) MSHRAlloc(addr uint64, now, fillReady int64, src Source) bool {
	for i, t := range c.mshrTag {
		if t == invalidTag || c.mshrFill[i] <= now {
			c.mshrTag[i] = addr >> 6
			c.mshrFill[i] = fillReady
			c.mshrSrc[i] = src
			if src == SrcRunahead {
				c.raHorizon = max(c.raHorizon, fillReady)
			}
			return true
		}
	}
	c.stats.MSHRStalls++
	return false
}

// RunaheadInFlight reports whether a runahead fill of addr's line is in
// flight at cycle now: the line is tag-present with SrcRunahead and data
// not yet arrived (the resource-reservation model installs lines at miss
// issue), or the first MSHR holding an in-flight miss on the line was
// allocated by runahead. It touches no LRU, statistics or MSHR state —
// the PRE-aware prefetch filter's probe — and costs one comparison once
// now reaches the cache's runahead-fill horizon.
//
//sim:pure
func (c *Cache) RunaheadInFlight(addr uint64, now int64) bool {
	if now >= c.raHorizon {
		return false
	}
	tag := addr >> 6
	if i := c.find(tag); i >= 0 && c.fillReady[i] > now && c.src[i] == SrcRunahead {
		return true
	}
	for i, t := range c.mshrTag {
		if t == tag && c.mshrFill[i] > now {
			return c.mshrSrc[i] == SrcRunahead
		}
	}
	return false
}

// NextMSHRRelease returns the earliest cycle strictly after now at which
// an occupied MSHR's fill completes (freeing the entry and changing the
// outcome of MSHRFree/MSHRLookup/MSHRAlloc). ok=false means no occupied
// entry releases after now. The core's cycle skipper uses this to bound
// how far a retrying (MSHR-blocked) access can be fast-forwarded.
//
//sim:pure the skipper may probe this any number of times per decision
func (c *Cache) NextMSHRRelease(now int64) (int64, bool) {
	var best int64
	ok := false
	for i, t := range c.mshrTag {
		if f := c.mshrFill[i]; t != invalidTag && f > now && (!ok || f < best) {
			best = f
			ok = true
		}
	}
	return best, ok
}

// LifetimeHWPref returns the never-reset hardware-prefetch usefulness
// counters (demand hits on HW-prefetched lines, and how many of those
// still waited on the fill) — the throttle feedback inputs.
func (c *Cache) LifetimeHWPref() (useful, late int64) {
	return c.lifeHWUseful, c.lifeHWLate
}

// MSHRFree counts the MSHRs available at cycle now.
func (c *Cache) MSHRFree(now int64) int {
	free := 0
	for i, t := range c.mshrTag {
		if t == invalidTag || c.mshrFill[i] <= now {
			free++
		}
	}
	return free
}

// NumSets returns the number of sets (for tests).
func (c *Cache) NumSets() int { return int(c.setMask) + 1 }

// OccupiedWays counts valid lines in the set holding addr (for tests and
// invariant checks).
func (c *Cache) OccupiedWays(addr uint64) int {
	base := c.setBase(addr >> 6)
	n := 0
	for _, t := range c.tags[base : base+c.cfg.Assoc] {
		if t != invalidTag {
			n++
		}
	}
	return n
}
