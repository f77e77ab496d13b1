package prefetch

import (
	"testing"

	"repro/internal/uarch"
)

func TestKindRoundTrip(t *testing.T) {
	for k := KindNone; k < numKinds; k++ {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted bogus kind")
	}
}

func TestConfigValidate(t *testing.T) {
	for _, c := range []Config{{}, DefaultNextLine(), DefaultStride(), DefaultBestOffset()} {
		if err := c.Validate(); err != nil {
			t.Errorf("%v: %v", c.Kind, err)
		}
	}
	bad := []Config{
		{Kind: KindNextLine},                                     // zero degree
		{Kind: KindStride, Degree: 2, Distance: 4},               // zero table
		{Kind: KindStride, Degree: 2, Distance: 4, TableSize: 3}, // not pow2
		{Kind: KindBestOffset, Degree: 1, RRSize: 64},            // zero ScoreMax
		{Kind: numKinds},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v: invalid config accepted", c)
		}
	}
}

func TestNoneBuildsNil(t *testing.T) {
	if p := (Config{}).New(); p != nil {
		t.Errorf("KindNone built %v, want nil", p)
	}
}

func TestNextLineRequests(t *testing.T) {
	p := DefaultNextLine().New()
	p.Observe(Access{Addr: 0x1008})
	got := p.Requests()
	want := []uint64{0x1040, 0x1080}
	if len(got) != len(want) {
		t.Fatalf("requests = %x, want %x", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request[%d] = %#x, want %#x", i, got[i], want[i])
		}
	}
	if p.Requests() != nil {
		t.Error("queue not drained")
	}
}

// A steady PC-repeating stride stream must arm the table and prefetch
// ahead of the access point.
func TestStrideDetectsStream(t *testing.T) {
	cfg := DefaultStride()
	p := cfg.New()
	const pc, strideB = 0x400100, 32
	var addr uint64 = 1 << 20
	var reqs []uint64
	for i := 0; i < 8; i++ {
		p.Observe(Access{Addr: addr, PC: pc})
		reqs = append(reqs, p.Requests()...)
		addr += strideB
	}
	if len(reqs) == 0 {
		t.Fatal("stride prefetcher never fired on a steady stream")
	}
	// Requests must be line-aligned and ahead of the trained stream.
	for _, r := range reqs {
		if r%uarch.LineSize != 0 {
			t.Errorf("unaligned request %#x", r)
		}
		if r <= addr {
			t.Errorf("request %#x not ahead of stream position %#x", r, addr)
		}
	}
}

// Different PCs map to different entries: interleaved streams train
// independently.
func TestStrideInterleavedStreams(t *testing.T) {
	p := DefaultStride().New()
	a, b := uint64(1<<20), uint64(1<<21)
	for i := 0; i < 8; i++ {
		p.Observe(Access{Addr: a, PC: 0x400100})
		p.Observe(Access{Addr: b, PC: 0x400104})
		a += 64
		b += 128
	}
	if len(p.Requests()) == 0 {
		t.Error("interleaved streams failed to train")
	}
}

// A descending stream near address zero must not wrap its prefetch
// targets around uint64.
func TestStrideDescendingNoWrap(t *testing.T) {
	p := DefaultStride().New()
	addr := uint64(0x4000)
	for i := 0; i < 16; i++ {
		p.Observe(Access{Addr: addr, PC: 0x400100})
		for _, r := range p.Requests() {
			if r > 1<<32 {
				t.Fatalf("wrapped prefetch target %#x from descending stream at %#x", r, addr)
			}
		}
		if addr < 0x1000 {
			break
		}
		addr -= 0x1000 // stride -4096: targets go negative within a few steps
	}
}

func TestStrideIgnoresPCZeroAndZeroStride(t *testing.T) {
	p := DefaultStride().New()
	for i := 0; i < 8; i++ {
		p.Observe(Access{Addr: 0x1000, PC: 0})    // PC-less
		p.Observe(Access{Addr: 0x2000, PC: 0x40}) // same address each time
	}
	if got := p.Requests(); got != nil {
		t.Errorf("prefetched %x from untrainable streams", got)
	}
}

// A sequential line stream is best-offset's easiest pattern: after the
// initial phase it must keep a non-zero offset elected and prefetch ahead.
func TestBestOffsetLearnsSequential(t *testing.T) {
	p := DefaultBestOffset().New()
	var addr uint64 = 1 << 22
	fired := 0
	for i := 0; i < 512; i++ {
		p.Observe(Access{Addr: addr})
		if rs := p.Requests(); len(rs) > 0 {
			fired++
			for _, r := range rs {
				if r <= addr {
					t.Fatalf("request %#x behind stream position %#x", r, addr)
				}
			}
		}
		addr += uarch.LineSize
	}
	if fired < 256 {
		t.Errorf("best-offset fired on %d/512 sequential accesses", fired)
	}
}

// A random access stream must score no offset and disable prefetching
// after the first learning phase concludes.
func TestBestOffsetDisablesOnRandom(t *testing.T) {
	cfg := DefaultBestOffset()
	p := cfg.New().(*bestOffset)
	s := uint64(12345)
	next := func() uint64 { // splitmix64
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	total := cfg.RoundMax*len(bopOffsets) + 1
	for i := 0; i < total; i++ {
		p.Observe(Access{Addr: (next() % (1 << 24)) * uarch.LineSize})
		p.Requests()
	}
	if p.best != 0 {
		t.Errorf("best offset %d elected on random traffic, want disabled", p.best)
	}
}

func TestQueueDedupAndCap(t *testing.T) {
	var q reqQueue
	for i := 0; i < 3; i++ {
		q.push(0x1000)
	}
	if got := q.Requests(); len(got) != 1 {
		t.Errorf("duplicate requests not deduplicated: %x", got)
	}
	for i := 0; i < 2*queueCap; i++ {
		q.push(uint64(i) * uarch.LineSize)
	}
	if got := q.Requests(); len(got) != queueCap {
		t.Errorf("queue grew to %d, cap is %d", len(got), queueCap)
	}
}

func TestVariants(t *testing.T) {
	vs := Variants()
	if len(vs) < 3 {
		t.Fatalf("want at least no-pf/stride/best-offset, got %d variants", len(vs))
	}
	seen := map[string]bool{}
	for _, v := range vs {
		if seen[v.Name] {
			t.Errorf("duplicate variant %q", v.Name)
		}
		seen[v.Name] = true
		if err := v.L1D.Validate(); err != nil {
			t.Errorf("%s L1D: %v", v.Name, err)
		}
		if err := v.L2.Validate(); err != nil {
			t.Errorf("%s L2: %v", v.Name, err)
		}
	}
	for _, want := range []string{"no-pf", "stride", "best-offset"} {
		if !seen[want] {
			t.Errorf("standard variant %q missing", want)
		}
		if _, err := VariantByName(want); err != nil {
			t.Errorf("VariantByName(%q): %v", want, err)
		}
	}
	if _, err := VariantByName("bogus"); err == nil {
		t.Error("VariantByName accepted bogus name")
	}
}

// TestNextLineHonorsDistance pins the Distance semantics Validate
// enforces: the engine requests lines Distance..Distance+Degree-1 ahead
// of the observed line.
func TestNextLineHonorsDistance(t *testing.T) {
	p := Config{Kind: KindNextLine, Degree: 2, Distance: 3}.New()
	p.Observe(Access{Addr: 0x0})
	got := p.Requests()
	want := []uint64{3 * 64, 4 * 64}
	if len(got) != len(want) {
		t.Fatalf("requests = %x, want %x", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request[%d] = %#x, want %#x (Distance not honored)", i, got[i], want[i])
		}
	}
}

// TestOverflowCounted: requests generated past the queue cap are counted,
// not silently discarded; duplicates of queued requests are not overflow.
func TestOverflowCounted(t *testing.T) {
	p := Config{Kind: KindNextLine, Degree: 1, Distance: 1}.New()
	for i := 0; i < 100; i++ {
		p.Observe(Access{Addr: uint64(i) * 64})
	}
	if got := p.Overflowed(); got != 100-queueCap {
		t.Errorf("Overflowed = %d, want %d", got, 100-queueCap)
	}
	// Duplicates of queued entries are dedup, not overflow.
	p.Requests()
	p.Observe(Access{Addr: 0})
	p.Observe(Access{Addr: 0})
	if got := p.Overflowed(); got != 100-queueCap {
		t.Errorf("duplicate push counted as overflow: %d", got)
	}
}

// TestEnginesBoundRequestsPerObserve: every engine of every standard
// variant, run at the largest degree Validate admits (queueCap), queues
// at most Degree requests per Observe over a long mixed access stream —
// sequential, strided per PC, random, and repeated addresses, with
// throttle feedback of every kind. A caller that drains after each
// observation therefore never overflows the queue. (The memory hierarchy
// does not always drain: a demand load rejected at the L2 or L3 MSHRs
// has already trained the L2 engine, and nothing drains it until the
// next accepted load. That path is where Overflowed counts.)
func TestEnginesBoundRequestsPerObserve(t *testing.T) {
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // xorshift64: a fixed, reproducible stream
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for _, v := range Variants() {
		for _, e := range []struct {
			level string
			c     Config
		}{{"l1i", v.L1I}, {"l1d", v.L1D}, {"l2", v.L2}} {
			level, c := e.level, e.c
			if !c.Enabled() {
				continue
			}
			c.Degree = queueCap
			p := c.New()
			ad, _ := p.(Adaptive)
			var fb Feedback
			for i := 0; i < 20_000; i++ {
				r := next()
				a := Access{PC: 0x400000 + (r%8)*4, Cycle: int64(i)}
				switch i % 4 {
				case 0:
					a.Addr = uint64(i) * uarch.LineSize
				case 1:
					a.Addr = uint64(i) * (r%5 + 1) * 24
				case 2:
					a.Addr = r % (1 << 30)
				default:
					a.Addr = uint64(i/4) * uarch.LineSize // repeats a recent line
				}
				p.Observe(a)
				if got := len(p.Requests()); got > c.Degree {
					t.Fatalf("%s/%s: observation %d queued %d requests, degree %d", v.Name, level, i, got, c.Degree)
				}
				if ad != nil && i%64 == 63 {
					fb.Issued += 64
					fb.Useful += int64(next() % 65)
					fb.Late += int64(next() % 8)
					ad.Feedback(fb)
				}
			}
			if o := p.Overflowed(); o != 0 {
				t.Errorf("%s/%s: %d requests overflowed with a drain after every observation", v.Name, level, o)
			}
		}
	}
}

// TestThrottledAdaptsDegree exercises the feedback controller directly:
// low-accuracy epochs walk the effective degree down to 1, high-accuracy
// epochs walk it back to the configured maximum, and per-observation
// request volume follows.
func TestThrottledAdaptsDegree(t *testing.T) {
	cfg := Config{Kind: KindNextLine, Degree: 4, Distance: 1, ThrottleEpoch: 16}
	p := cfg.New()
	ad, ok := p.(Adaptive)
	if !ok {
		t.Fatal("ThrottleEpoch > 0 did not build an Adaptive engine")
	}
	type degreer interface{ Degree() int }
	d := p.(degreer)
	if d.Degree() != 4 {
		t.Fatalf("initial degree %d, want the configured max 4", d.Degree())
	}

	// Worthless epochs: plenty issued, nothing useful.
	issued := int64(0)
	for i := 0; i < 3; i++ {
		issued += 100
		ad.Feedback(Feedback{Issued: issued})
	}
	if d.Degree() != 1 {
		t.Errorf("degree %d after three zero-accuracy epochs, want 1", d.Degree())
	}
	p.Observe(Access{Addr: 0})
	if got := len(p.Requests()); got != 1 {
		t.Errorf("throttled engine forwarded %d requests at degree 1", got)
	}

	// Perfect epochs: everything issued is useful again.
	useful := issued
	for i := 0; i < 3; i++ {
		issued += 100
		useful += 100
		ad.Feedback(Feedback{Issued: issued, Useful: useful})
	}
	if d.Degree() != 4 {
		t.Errorf("degree %d after three perfect epochs, want back at 4", d.Degree())
	}
	p.Observe(Access{Addr: 64 * 100})
	if got := len(p.Requests()); got != 4 {
		t.Errorf("throttled engine forwarded %d requests at degree 4", got)
	}

	// Mid accuracy but mostly-late fills also step up (timeliness).
	for i := 0; i < 2; i++ {
		issued += 100
		useful += 50
		ad.Feedback(Feedback{Issued: issued, Useful: useful})
	}
	if d.Degree() != 4 {
		t.Errorf("degree %d dropped on mid-accuracy epochs without lateness", d.Degree())
	}

	// Tiny epochs carry no signal: degree must not move.
	before := d.Degree()
	ad.Feedback(Feedback{Issued: issued + 2})
	if d.Degree() != before {
		t.Errorf("degree moved on a %d-request epoch", 2)
	}
}

// TestThrottledName labels the wrapper around its inner engine.
func TestThrottledName(t *testing.T) {
	p := ThrottledStride().New()
	if got := p.Name(); got != "throttled(stride)" {
		t.Errorf("Name = %q", got)
	}
}

// TestVariantsAdaptiveGrid pins the extended grid: unique names, valid
// configurations, and the structural properties each new point exists
// for.
func TestVariantsAdaptiveGrid(t *testing.T) {
	vs := Variants()
	if len(vs) != 8 {
		t.Fatalf("got %d variants, want 8", len(vs))
	}
	seen := map[string]bool{}
	for _, v := range vs {
		if seen[v.Name] {
			t.Errorf("duplicate variant name %q", v.Name)
		}
		seen[v.Name] = true
		for _, c := range []Config{v.L1I, v.L1D, v.L2} {
			if err := c.Validate(); err != nil {
				t.Errorf("variant %q has invalid config: %v", v.Name, err)
			}
		}
		if _, err := VariantByName(v.Name); err != nil {
			t.Errorf("VariantByName(%q): %v", v.Name, err)
		}
	}
	l1i, _ := VariantByName("l1i-nl")
	if !l1i.L1I.Enabled() || l1i.L1D.Enabled() || l1i.L2.Enabled() || l1i.Filter {
		t.Errorf("l1i-nl is not the pure L1I point: %+v", l1i)
	}
	throttled, _ := VariantByName("throttled")
	if throttled.L1D.ThrottleEpoch == 0 || throttled.L2.ThrottleEpoch == 0 || throttled.Filter {
		t.Errorf("throttled point misconfigured: %+v", throttled)
	}
	filtered, _ := VariantByName("filtered")
	combined, _ := VariantByName("stride+bo")
	if !filtered.Filter || filtered.L1D != combined.L1D || filtered.L2 != combined.L2 {
		t.Errorf("filtered must be stride+bo plus the filter bit: %+v", filtered)
	}
	adaptive, _ := VariantByName("adaptive")
	if !adaptive.Filter || !adaptive.L1I.Enabled() || adaptive.L1I.ThrottleEpoch == 0 {
		t.Errorf("adaptive must stack L1I + throttle + filter: %+v", adaptive)
	}
}

// TestThrottleEpochValidation rejects negative epochs for every kind.
func TestThrottleEpochValidation(t *testing.T) {
	c := DefaultStride()
	c.ThrottleEpoch = -1
	if err := c.Validate(); err == nil {
		t.Error("negative ThrottleEpoch validated")
	}
}
