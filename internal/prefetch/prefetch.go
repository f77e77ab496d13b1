// Package prefetch implements the pluggable hardware prefetchers that sit
// beside the cache levels of the simulated hierarchy. Runahead execution
// is the paper's latency-hiding mechanism of interest, but it competes
// with (and composes with) conventional hardware prefetching — the
// comparison axis of Hashemi's on-chip-mechanisms work and the R3-DLA
// evaluation methodology. This package supplies that axis.
//
// A Prefetcher is a passive observer with a request queue: the memory
// hierarchy feeds it the demand-access stream of its level via Observe,
// and drains Requests into real multi-level accesses that consume the
// same MSHRs, DRAM banks and bus slots as demand and runahead traffic
// (see internal/mem). The package itself performs no memory accesses and
// keeps no timing state beyond what its prediction tables need, so every
// implementation is trivially deterministic.
//
// Implementations:
//
//   - NextLine: sequential next-N-lines prefetching on every access — the
//     simplest useful baseline.
//   - Stride: a PC-indexed reference-prediction table (Chen & Baer style):
//     per-PC last address, stride and 2-bit-style confidence; on a
//     confident match it prefetches Degree lines Distance strides ahead.
//     Covers the streaming/stencil archetypes.
//   - BestOffset: a Michaud-style best-offset prefetcher for the L2: a
//     recent-requests table scores candidate offsets round-robin and the
//     winning offset drives prefetches until the next learning phase
//     re-elects it. Covers strided streams whose L1 stride is sub-line
//     (the offset is learned in line units, independent of PC).
//
// Any engine composes with the accuracy-driven degree throttle
// (Config.ThrottleEpoch > 0): a feedback controller in the style of
// Srinath's feedback-directed prefetching that scales the engine's
// effective degree between 1 and its configured maximum from
// epoch-sampled accuracy and late-ratio feedback (the hierarchy pushes
// mem.PFStats-derived counters via the Adaptive interface). Open-loop
// engines run at fixed degree, which is exactly what the throttle exists
// to fix: useless prefetches on irregular phases waste MSHRs and DRAM
// bandwidth the runahead mechanisms need.
package prefetch

import (
	"fmt"

	"repro/internal/uarch"
)

// Access is one demand access observed at a cache level.
type Access struct {
	// Addr is the accessed byte address.
	Addr uint64
	// PC is the load's program counter (zero when the observing level has
	// no PC, e.g. the L2 observing L1 miss traffic).
	PC uint64
	// Hit reports whether this level served the access.
	Hit bool
	// Cycle is the core cycle of the access.
	Cycle int64
}

// Prefetcher is the common interface: observe the demand stream, queue
// line prefetch requests. Implementations are not safe for concurrent use
// (the simulator is single-threaded per machine).
type Prefetcher interface {
	// Name labels the prefetcher in reports.
	Name() string
	// Observe feeds one demand access into the prediction tables.
	Observe(a Access)
	// Requests drains the queued prefetch requests: line-aligned byte
	// addresses, in generation order. The queue is empty afterwards.
	Requests() []uint64
	// Overflowed returns the cumulative count of generated requests that
	// were discarded because the pending queue was full. The counter never
	// resets (the hierarchy differences it across measurement windows);
	// surfacing it is what keeps queue-capacity coverage loss visible
	// instead of silently vanishing.
	Overflowed() int64
}

// Feedback carries the cumulative usefulness counters the hierarchy
// samples for an adaptive prefetcher: how many requests the engine
// actually injected, how many of its fills were consumed by demand, and
// how many of those consumers still waited on the in-flight fill. All
// three are lifetime values (never reset by measurement windows); the
// receiver differences consecutive samples to get per-epoch ratios.
type Feedback struct {
	Issued int64
	Useful int64
	Late   int64
}

// Adaptive is implemented by prefetchers that close the loop on their own
// effectiveness. The memory hierarchy calls Feedback every
// Config.ThrottleEpoch training observations with that engine's
// cumulative counters.
type Adaptive interface {
	Feedback(f Feedback)
}

// DegreeReporter is implemented by engines whose effective degree can be
// inspected without perturbing them — the throttled wrapper, today. The
// telemetry layer samples it around Feedback calls to record throttle
// decisions; it must never be used to drive simulation behavior.
type DegreeReporter interface {
	Degree() int
}

// Kind selects a prefetcher implementation.
type Kind uint8

// Available prefetcher kinds.
const (
	// KindNone disables prefetching at the level.
	KindNone Kind = iota
	// KindNextLine prefetches the next Degree sequential lines.
	KindNextLine
	// KindStride is the PC-indexed stride prefetcher.
	KindStride
	// KindBestOffset is the best-offset prefetcher.
	KindBestOffset
	numKinds
)

var kindNames = [numKinds]string{"none", "next-line", "stride", "best-offset"}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind resolves a prefetcher name as used in CLI flags.
func ParseKind(s string) (Kind, error) {
	for k := KindNone; k < numKinds; k++ {
		if kindNames[k] == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("prefetch: unknown kind %q (want none, next-line, stride, best-offset)", s)
}

// queueCap bounds any prefetcher's pending-request queue. An engine
// queues at most Degree (<= queueCap) requests per observation, and the
// hierarchy drains after every accepted demand access. A demand load
// rejected at the L2 or L3 MSHRs has already trained the L2 engine,
// though, and its requests wait for the next accepted load; at high
// degrees such retries fill the queue and the excess counts as overflow.
const queueCap = 64

// Config describes one prefetcher instance. It contains only scalar
// fields so it embeds cleanly in the experiment orchestrator's canonical
// configuration fingerprints (internal/exp dedups runs by %+v identity).
type Config struct {
	// Kind selects the implementation; KindNone disables the prefetcher.
	Kind Kind
	// Degree is the number of lines requested per trigger.
	Degree int
	// Distance is the prefetch look-ahead: strides ahead of the current
	// access for Stride, lines ahead for NextLine. BestOffset learns its
	// own distance (the offset) and ignores this.
	Distance int
	// TableSize is the stride table's entry count (power of two).
	TableSize int
	// RRSize is the best-offset recent-requests table size (power of two).
	RRSize int
	// ScoreMax ends a best-offset learning phase early when an offset
	// reaches this score.
	ScoreMax int
	// RoundMax bounds a best-offset learning phase in full passes over the
	// candidate offset list.
	RoundMax int
	// BadScore disables best-offset prefetching for a phase whose winning
	// offset scored at or below it (the access stream has no usable
	// offset pattern).
	BadScore int
	// ThrottleEpoch enables accuracy-driven degree throttling: every
	// ThrottleEpoch training observations the hierarchy feeds the engine
	// its cumulative issued/useful/late counters, and the throttle scales
	// the effective degree between 1 and Degree (high accuracy or mostly
	// late-but-useful fills step it up, low accuracy steps it down).
	// 0 disables throttling (open-loop fixed degree).
	ThrottleEpoch int
}

// Enabled reports whether the configuration names a real prefetcher.
func (c Config) Enabled() bool { return c.Kind != KindNone }

// DefaultNextLine returns a degree-2 sequential prefetcher configuration.
func DefaultNextLine() Config {
	return Config{Kind: KindNextLine, Degree: 2, Distance: 1}
}

// DefaultL1INextLine returns the L1I fetch-stream prefetcher. Instruction
// fetch is almost perfectly sequential between taken branches, so the
// standard next-line configuration is exactly right for the front end
// too — delegating keeps the two baselines from silently diverging.
func DefaultL1INextLine() Config {
	return DefaultNextLine()
}

// throttleEpochDefault is the adaptation interval of the Throttled*
// configurations, in training observations. Small enough to re-converge
// within one synth phase (8k µops minimum), large enough that per-epoch
// accuracy is not shot noise.
const throttleEpochDefault = 256

// ThrottledStride returns the adaptive L1D stride configuration: the
// DefaultStride table and distance with the maximum degree raised to 4
// and the feedback throttle scaling the effective degree from accuracy.
func ThrottledStride() Config {
	c := DefaultStride()
	c.Degree = 4
	c.ThrottleEpoch = throttleEpochDefault
	return c
}

// ThrottledBestOffset returns the adaptive L2 best-offset configuration:
// DefaultBestOffset with a maximum degree of 2 under feedback control.
func ThrottledBestOffset() Config {
	c := DefaultBestOffset()
	c.Degree = 2
	c.ThrottleEpoch = throttleEpochDefault
	return c
}

// ThrottledL1INextLine returns the adaptive L1I configuration: next-line
// with a maximum degree of 4 under feedback control — deep sequential
// look-ahead on code sweeps, degree 1 on loop-resident phases where
// almost every prefetch is redundant.
func ThrottledL1INextLine() Config {
	c := DefaultL1INextLine()
	c.Degree = 4
	c.ThrottleEpoch = throttleEpochDefault
	return c
}

// DefaultStride returns the L1D stride prefetcher configuration: a
// 256-entry PC-indexed table, prefetching 2 lines 16 strides ahead. The
// suite's streaming kernels advance 8-32 bytes per iteration, so 16
// strides is 2-8 lines of look-ahead — enough to stay ahead of a ~250
// cycle DRAM access at the proxies' iteration rates.
func DefaultStride() Config {
	return Config{Kind: KindStride, Degree: 2, Distance: 16, TableSize: 256}
}

// DefaultBestOffset returns the L2 best-offset prefetcher configuration
// (Michaud's published defaults, scaled to the 256 KB L2: 64-entry RR
// table, scores saturate at 31, phases end after 24 rounds, offsets
// scoring <= 1 do not prefetch).
func DefaultBestOffset() Config {
	return Config{Kind: KindBestOffset, Degree: 1, RRSize: 64, ScoreMax: 31, RoundMax: 24, BadScore: 1}
}

// Validate checks the configuration for the selected kind.
func (c *Config) Validate() error {
	switch c.Kind {
	case KindNone:
		return nil
	case KindNextLine:
		if c.Degree <= 0 || c.Degree > queueCap || c.Distance <= 0 {
			return fmt.Errorf("prefetch: next-line needs 0 < Degree <= %d and Distance > 0", queueCap)
		}
	case KindStride:
		if c.Degree <= 0 || c.Degree > queueCap || c.Distance <= 0 {
			return fmt.Errorf("prefetch: stride needs 0 < Degree <= %d and Distance > 0", queueCap)
		}
		if c.TableSize <= 0 || c.TableSize&(c.TableSize-1) != 0 {
			return fmt.Errorf("prefetch: stride TableSize %d not a power of two", c.TableSize)
		}
	case KindBestOffset:
		if c.Degree <= 0 || c.Degree > queueCap {
			return fmt.Errorf("prefetch: best-offset needs 0 < Degree <= %d", queueCap)
		}
		if c.RRSize <= 0 || c.RRSize&(c.RRSize-1) != 0 {
			return fmt.Errorf("prefetch: best-offset RRSize %d not a power of two", c.RRSize)
		}
		if c.ScoreMax <= 0 || c.RoundMax <= 0 || c.BadScore < 0 {
			return fmt.Errorf("prefetch: best-offset needs positive ScoreMax/RoundMax and BadScore >= 0")
		}
	default:
		return fmt.Errorf("prefetch: invalid kind %d", c.Kind)
	}
	if c.ThrottleEpoch < 0 {
		return fmt.Errorf("prefetch: negative ThrottleEpoch %d", c.ThrottleEpoch)
	}
	return nil
}

// New builds the configured prefetcher, or nil for KindNone. It panics on
// invalid configuration (the public API validates first, like the cache
// and DRAM constructors).
func (c Config) New() Prefetcher {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	var p Prefetcher
	switch c.Kind {
	case KindNone:
		return nil
	case KindNextLine:
		p = &nextLine{cfg: c}
	case KindStride:
		p = &stride{cfg: c, table: make([]strideEntry, c.TableSize), mask: uint64(c.TableSize - 1)}
	case KindBestOffset:
		p = newBestOffset(c)
	default:
		panic("unreachable")
	}
	if c.ThrottleEpoch > 0 {
		p = newThrottled(p, c.Degree)
	}
	return p
}

// reqQueue is the shared bounded request queue.
type reqQueue struct {
	q []uint64
	// overflowed counts pushes discarded at queueCap — lost coverage that
	// every engine surfaces through Prefetcher.Overflowed (duplicate
	// pushes are not overflow: they represent no lost coverage).
	overflowed int64
}

// push queues a line-aligned request, dropping duplicates of the current
// queue contents and counting everything past the cap as overflow.
//
//sim:hotpath
func (r *reqQueue) push(addr uint64) {
	addr = uarch.LineAddr(addr)
	for _, a := range r.q {
		if a == addr {
			return // already pending: no coverage lost
		}
	}
	if len(r.q) >= queueCap {
		r.overflowed++
		return
	}
	r.q = append(r.q, addr)
}

// Requests returns the queued requests and empties the queue. The
// returned slice aliases the queue's reusable buffer: it is valid until
// the next Observe call, which is exactly the hierarchy's drain pattern
// (drain fully, then resume observing) — so steady-state draining never
// allocates.
func (r *reqQueue) Requests() []uint64 {
	if len(r.q) == 0 {
		return nil
	}
	out := r.q
	r.q = r.q[:0]
	return out
}

// Overflowed returns the cumulative count of requests dropped at the
// queue cap.
func (r *reqQueue) Overflowed() int64 { return r.overflowed }

// --- next-line ---------------------------------------------------------------

type nextLine struct {
	cfg Config
	reqQueue
}

func (p *nextLine) Name() string { return "next-line" }

// Observe queues the Degree sequential lines starting Distance lines
// ahead of the access — lines Distance .. Distance+Degree-1 — matching
// the Distance > 0 requirement Validate enforces (Distance 1 is classic
// next-line; larger distances trade pollution for timeliness on fast
// sweeps).
//
//sim:hotpath
func (p *nextLine) Observe(a Access) {
	base := uarch.LineAddr(a.Addr)
	for i := 0; i < p.cfg.Degree; i++ {
		p.push(base + uint64(p.cfg.Distance+i)*uarch.LineSize)
	}
}

// --- stride ------------------------------------------------------------------

// strideEntry is one reference-prediction-table row.
type strideEntry struct {
	pc     uint64
	last   uint64 // last address observed for this PC
	stride int64  // last confirmed byte stride
	conf   int8   // saturating confidence
	valid  bool
}

// Confidence thresholds: two confirmations arm the entry, four saturate.
const (
	strideConfMax     = 4
	strideConfTrigger = 2
)

type stride struct {
	cfg   Config
	table []strideEntry
	mask  uint64
	reqQueue
}

func (p *stride) Name() string { return "stride" }

//sim:hotpath
func (p *stride) Observe(a Access) {
	if a.PC == 0 {
		return // PC-less traffic (e.g. store commits) cannot train the RPT
	}
	e := &p.table[a.PC&p.mask]
	if !e.valid || e.pc != a.PC {
		*e = strideEntry{pc: a.PC, last: a.Addr, valid: true}
		return
	}
	s := int64(a.Addr) - int64(e.last)
	e.last = a.Addr
	switch {
	case s == 0:
		return // same address (retry or hot line): no information
	case s == e.stride:
		if e.conf < strideConfMax {
			e.conf++
		}
	default:
		// Mismatch: decay; on full loss of confidence adopt the new stride.
		e.conf--
		if e.conf <= 0 {
			e.stride = s
			e.conf = 1
		}
		return
	}
	if e.conf < strideConfTrigger {
		return
	}
	// Confident: fetch Degree distinct lines starting Distance strides
	// ahead. Sub-line strides advance the target by whole lines so the
	// degree is not wasted on duplicates of one line.
	lineStep := e.stride
	if lineStep > -uarch.LineSize && lineStep < uarch.LineSize {
		if lineStep > 0 {
			lineStep = uarch.LineSize
		} else {
			lineStep = -uarch.LineSize
		}
	}
	base := int64(a.Addr) + e.stride*int64(p.cfg.Distance)
	for i := 0; i < p.cfg.Degree; i++ {
		target := base + int64(i)*lineStep
		if target < 0 {
			continue // descending stream ran past address zero
		}
		p.push(uint64(target))
	}
}

// --- best offset -------------------------------------------------------------

// bopOffsets is the candidate offset list in lines: Michaud's list is the
// 2^i*3^j*5^k smooth numbers up to 256; this model uses the dense prefix
// that matters at the proxies' working-set scales.
var bopOffsets = []int64{1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 27, 30, 32, 36, 40, 48, 54, 60, 64}

type bestOffset struct {
	cfg    Config
	rr     []uint64 // direct-mapped recent request lines
	rrMask uint64
	scores []int
	test   int // cursor into bopOffsets for the offset under test
	round  int
	best   int64 // elected offset in lines; 0 = prefetching disabled
	reqQueue
}

func newBestOffset(cfg Config) *bestOffset {
	return &bestOffset{
		cfg:    cfg,
		rr:     make([]uint64, cfg.RRSize),
		rrMask: uint64(cfg.RRSize - 1),
		scores: make([]int, len(bopOffsets)),
		best:   1, // start sequential until the first phase elects a winner
	}
}

func (p *bestOffset) Name() string { return "best-offset" }

// Observe implements the learning loop: each access tests one candidate
// offset d against the recent-requests table (was line X-d requested
// recently? then offset d would have prefetched X in time), inserts the
// access into the RR table, and prefetches with the currently elected
// offset. Inserting at access time rather than at fill completion is the
// model's one simplification; it biases the learner slightly toward
// aggressive offsets, which the BadScore cutoff compensates.
func (p *bestOffset) Observe(a Access) {
	x := a.Addr / uarch.LineSize

	d := bopOffsets[p.test]
	if x >= uint64(d) && p.rrContains(x-uint64(d)) {
		p.scores[p.test]++
		if p.scores[p.test] >= p.cfg.ScoreMax {
			p.elect(p.test)
		}
	}
	p.test++
	if p.test == len(bopOffsets) {
		p.test = 0
		p.round++
		if p.round >= p.cfg.RoundMax {
			best := 0
			for i, s := range p.scores {
				if s > p.scores[best] {
					best = i
				}
			}
			p.elect(best)
		}
	}

	p.rrInsert(x)

	if p.best == 0 {
		return
	}
	for i := 1; i <= p.cfg.Degree; i++ {
		p.push((x + uint64(p.best)*uint64(i)) * uarch.LineSize)
	}
}

// elect ends the learning phase: adopt the winner (or disable prefetching
// on a bad score) and reset the score board for the next phase.
func (p *bestOffset) elect(idx int) {
	if p.scores[idx] > p.cfg.BadScore {
		p.best = bopOffsets[idx]
	} else {
		p.best = 0
	}
	for i := range p.scores {
		p.scores[i] = 0
	}
	p.test = 0
	p.round = 0
}

func (p *bestOffset) rrContains(line uint64) bool {
	return p.rr[line&p.rrMask] == line && line != 0
}

func (p *bestOffset) rrInsert(line uint64) {
	p.rr[line&p.rrMask] = line
}

// --- accuracy-driven degree throttle -----------------------------------------

// Throttle response thresholds (feedback-directed-prefetching style):
// epoch accuracy at or above throttleAccHigh steps the degree up, below
// throttleAccLow steps it down; in between, a mostly-late epoch (useful
// fills that demand still waited on) also steps up — the engine is
// predicting the right lines too late, so more look-ahead volume helps.
// Epochs with fewer than throttleMinIssued injected requests carry no
// signal and leave the degree unchanged.
const (
	throttleAccHigh   = 0.70
	throttleAccLow    = 0.35
	throttleLateHigh  = 0.5
	throttleMinIssued = 8
)

// throttled wraps any engine with the accuracy-driven degree controller:
// the inner engine generates at its configured (maximum) degree and the
// wrapper forwards at most `deg` of each observation's requests, so the
// effective degree moves between 1 and the maximum without the engine
// knowing. Feedback samples arrive from the hierarchy as cumulative
// counters (see Adaptive); the wrapper differences consecutive samples.
type throttled struct {
	inner Prefetcher
	max   int
	deg   int
	last  Feedback
	reqQueue
}

func newThrottled(inner Prefetcher, maxDegree int) *throttled {
	// Start at the maximum: identical to the open-loop engine until the
	// first epoch proves the traffic useless, so regular streams never
	// pay a warmup penalty.
	return &throttled{inner: inner, max: maxDegree, deg: maxDegree}
}

func (t *throttled) Name() string { return "throttled(" + t.inner.Name() + ")" }

// Observe trains the inner engine and forwards at most the effective
// degree of the requests it generated for this observation.
func (t *throttled) Observe(a Access) {
	t.inner.Observe(a)
	for i, addr := range t.inner.Requests() {
		if i >= t.deg {
			break
		}
		t.push(addr)
	}
}

// Overflowed combines the wrapper's own queue overflow with the inner
// engine's (the inner queue is drained every observation, so its share is
// normally zero).
func (t *throttled) Overflowed() int64 {
	return t.reqQueue.Overflowed() + t.inner.Overflowed()
}

// Degree returns the current effective degree (tests and diagnostics).
func (t *throttled) Degree() int { return t.deg }

// Feedback differences the cumulative sample against the previous epoch
// and moves the effective degree one step.
func (t *throttled) Feedback(f Feedback) {
	di := f.Issued - t.last.Issued
	du := f.Useful - t.last.Useful
	dl := f.Late - t.last.Late
	t.last = f
	if di < throttleMinIssued {
		return
	}
	acc := float64(du) / float64(di)
	lateRatio := 0.0
	if du > 0 {
		lateRatio = float64(dl) / float64(du)
	}
	switch {
	case acc >= throttleAccHigh:
		if t.deg < t.max {
			t.deg++
		}
	case acc < throttleAccLow:
		if t.deg > 1 {
			t.deg--
		}
	case lateRatio >= throttleLateHigh:
		if t.deg < t.max {
			t.deg++
		}
	}
}

// --- variants ----------------------------------------------------------------

// Variant is a named per-level prefetcher assignment plus the PRE-aware
// filter switch — one point of the PF-augmented simulation grid.
type Variant struct {
	// Name labels the variant in reports and results sinks.
	Name string
	// L1I, L1D and L2 configure the per-level prefetchers (Kind None
	// disables). The L1I engine observes the instruction-fetch stream.
	L1I, L1D, L2 Config
	// Filter enables the PRE-aware filter: hardware prefetch requests
	// whose line is already covered by an in-flight runahead-tagged MSHR
	// are dropped (and counted separately as FilteredRA), so HW engines
	// stop duplicating work the runahead mechanism already started.
	Filter bool
}

// Variants lists the standard PF grid points. The first four are the
// original open-loop grid: no prefetching, an L1D stride prefetcher, an
// L2 best-offset prefetcher, and both combined. The adaptive points layer
// the new machinery on top: an L1I next-line engine for front-end-bound
// workloads, the accuracy-driven degree throttle, the PRE-aware filter
// on the open-loop pair (isolating the interference term), and the full
// adaptive stack. Every runahead mode crossed with these variants yields
// the PRE-vs-prefetch-vs-combined comparison the paper frames its result
// against.
func Variants() []Variant {
	return []Variant{
		{Name: "no-pf"},
		{Name: "stride", L1D: DefaultStride()},
		{Name: "best-offset", L2: DefaultBestOffset()},
		{Name: "stride+bo", L1D: DefaultStride(), L2: DefaultBestOffset()},
		{Name: "l1i-nl", L1I: DefaultL1INextLine()},
		{Name: "throttled", L1D: ThrottledStride(), L2: ThrottledBestOffset()},
		{Name: "filtered", L1D: DefaultStride(), L2: DefaultBestOffset(), Filter: true},
		{Name: "adaptive", L1I: ThrottledL1INextLine(), L1D: ThrottledStride(), L2: ThrottledBestOffset(), Filter: true},
	}
}

// VariantByName looks up a standard grid point.
func VariantByName(name string) (Variant, error) {
	for _, v := range Variants() {
		if v.Name == name {
			return v, nil
		}
	}
	return Variant{}, fmt.Errorf("prefetch: unknown variant %q", name)
}
