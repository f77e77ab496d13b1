// Package telemetry is the simulator's zero-cost-when-off observability
// layer: a cycle-level trace recorder that serializes timeline events —
// runahead episodes, full-window stall spans, cycle-skip jumps, prefetch
// trains, throttle decisions — as Chrome trace_event JSON (loadable in
// Perfetto / chrome://tracing), and a hierarchical metrics registry that
// unifies the counters scattered across core.Stats, the memory hierarchy
// and the runahead structures into named, snapshotable series.
//
// Everything here is sidecar-only: attaching a Recorder never perturbs
// simulation results (the telemetry differential test pins the results
// JSON byte-identical with tracing on or off), and a detached simulation
// pays only a nil pointer check per hook site — the hooks are concrete
// *Recorder fields, never interfaces, so the disabled path stays on the
// core's zero-allocation contract (TestSteadyStateAllocs).
//
// Time convention: one simulated cycle maps to one trace microsecond
// (the trace_event "ts"/"dur" unit), so span lengths read directly as
// cycle counts in the viewer.
package telemetry

import (
	"encoding/json"
	"io"
	"os"

	"repro/internal/stats"
)

// Event is one Chrome trace_event entry. Complete spans use Ph "X" with
// Ts/Dur, instants use Ph "i", and metadata (process/thread names) uses
// Ph "M". Args marshal with sorted keys (encoding/json), so serialized
// traces are deterministic for a deterministic simulation.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Per-recorder track (thread) layout: one lane per event family so the
// viewer shows episodes, stalls, skips and memory events on separate rows.
const (
	tidEpisodes = 0 // runahead episode spans
	tidStalls   = 1 // full-window stall spans
	tidSkips    = 2 // cycle-skip jumps
	tidMem      = 3 // prefetch trains + throttle decisions
)

// Event categories (the "cat" field; CI greps for cat "runahead").
const (
	catRunahead = "runahead"
	catStall    = "stall"
	catSkip     = "skip"
	catPrefetch = "prefetch"
)

// Recorder captures one simulation's timeline. It is attached to a core
// (and its hierarchy) after warmup, collects events during the measured
// window, and is closed with Finish. Not safe for concurrent use: one
// Recorder observes exactly one single-threaded simulation (parallel
// sweeps use one Recorder per unique run, distinguished by pid).
type Recorder struct {
	name   string
	pid    int
	events []Event

	// Open runahead episode.
	epOpen      bool
	epStart     int64
	epPC        uint64
	epSeq       int64
	epMode      string
	epRemaining int64

	// Open full-window stall span ([stStart, stLast], inclusive cycles).
	stOpen          bool
	stStart, stLast int64

	episodes  int
	skips     int
	trains    int
	throttles int
	finished  bool

	// Per-interval distributions, observed as spans close.
	epLen   *stats.Histogram // episode length, cycles
	pfSet   *stats.Histogram // prefetches issued per episode
	skipLen *stats.Histogram // cycle-skip jump length, cycles

	reg *Registry
}

// NewRecorder returns an empty recorder named for its run (pid 0).
func NewRecorder(name string) *Recorder { return NewRecorderPid(name, 0) }

// NewRecorderPid returns an empty recorder with an explicit trace pid —
// parallel sweeps give each unique run its own pid so a merged trace
// shows one process row per run.
func NewRecorderPid(name string, pid int) *Recorder {
	r := &Recorder{
		name:    name,
		pid:     pid,
		epLen:   stats.NewHistogram("trace-episode-cycles", 10, 20, 50, 100, 200, 400, 800, 1600),
		pfSet:   stats.NewHistogram("trace-episode-prefetches", 1, 2, 4, 8, 16, 32, 64, 128),
		skipLen: stats.NewHistogram("trace-skip-span-cycles", 16, 64, 256, 1024, 4096, 16384),
	}
	r.meta("process_name", -1, map[string]any{"name": name})
	for tid, tn := range map[int]string{
		tidEpisodes: "runahead episodes",
		tidStalls:   "full-window stalls",
		tidSkips:    "cycle skips",
		tidMem:      "memory system",
	} {
		r.meta("thread_name", tid, map[string]any{"name": tn})
	}
	return r
}

func (r *Recorder) meta(name string, tid int, args map[string]any) {
	ev := Event{Name: name, Ph: "M", Pid: r.pid, Args: args}
	if tid >= 0 {
		ev.Tid = tid
	}
	r.events = append(r.events, ev)
}

// Name returns the recorder's run label.
func (r *Recorder) Name() string { return r.name }

// Pid returns the recorder's trace process id.
func (r *Recorder) Pid() int { return r.pid }

// RunaheadEnter opens an episode span: the core entered runahead at
// cycle, triggered by the load at pc (sequence seq) with the given
// predicted remaining miss latency.
func (r *Recorder) RunaheadEnter(cycle int64, pc uint64, seq int64, mode string, remaining int64) {
	if r.epOpen {
		// Defensive: a lost exit must not corrupt the next span.
		r.closeEpisode(cycle, 0, 0, 0, true)
	}
	r.epOpen = true
	r.epStart = cycle
	r.epPC = pc
	r.epSeq = seq
	r.epMode = mode
	r.epRemaining = remaining
}

// RunaheadExit closes the open episode span at cycle, recording the
// episode's dispatched-µop, prefetch and INV deltas. An exit with no
// open episode (warmup entered runahead before the recorder attached) is
// ignored.
func (r *Recorder) RunaheadExit(cycle, uops, prefetches, inv int64) {
	if !r.epOpen {
		return
	}
	r.closeEpisode(cycle, uops, prefetches, inv, false)
}

func (r *Recorder) closeEpisode(cycle, uops, prefetches, inv int64, truncated bool) {
	dur := cycle - r.epStart
	args := map[string]any{
		"pc":            hex(r.epPC),
		"seq":           r.epSeq,
		"mode":          r.epMode,
		"stall_cause":   "full-window LLC miss",
		"remaining_lat": r.epRemaining,
		"uops":          uops,
		"prefetches":    prefetches,
		"inv":           inv,
	}
	if truncated {
		args["truncated"] = true
	}
	r.events = append(r.events, Event{
		Name: "runahead " + r.epMode, Cat: catRunahead, Ph: "X",
		Ts: r.epStart, Dur: dur, Pid: r.pid, Tid: tidEpisodes, Args: args,
	})
	r.epOpen = false
	r.episodes++
	r.epLen.Observe(dur)
	r.pfSet.Observe(prefetches)
}

// FullWindowStall accounts one full-window stall cycle. Contiguous stall
// cycles coalesce into one span; a gap closes the open span and starts a
// new one.
func (r *Recorder) FullWindowStall(cycle int64) { r.stallSpan(cycle, 1) }

// FullWindowStallN accounts n contiguous stall cycles starting at cycle —
// the bulk form the cycle skipper uses when it fast-forwards a stalled
// span.
func (r *Recorder) FullWindowStallN(cycle, n int64) { r.stallSpan(cycle, n) }

func (r *Recorder) stallSpan(cycle, n int64) {
	if n <= 0 {
		return
	}
	if r.stOpen && cycle <= r.stLast+1 {
		if last := cycle + n - 1; last > r.stLast {
			r.stLast = last
		}
		return
	}
	r.closeStall()
	r.stOpen = true
	r.stStart = cycle
	r.stLast = cycle + n - 1
}

func (r *Recorder) closeStall() {
	if !r.stOpen {
		return
	}
	r.events = append(r.events, Event{
		Name: "full-window stall", Cat: catStall, Ph: "X",
		Ts: r.stStart, Dur: r.stLast - r.stStart + 1, Pid: r.pid, Tid: tidStalls,
	})
	r.stOpen = false
}

// CycleSkip records one event-driven time jump of n cycles starting at
// cycle. kind distinguishes inert skips ("idle") from amortized retry
// spans ("retry").
func (r *Recorder) CycleSkip(cycle, n int64, kind string) {
	if n <= 0 {
		return
	}
	r.events = append(r.events, Event{
		Name: "skip " + kind, Cat: catSkip, Ph: "X",
		Ts: cycle, Dur: n, Pid: r.pid, Tid: tidSkips,
		Args: map[string]any{"cycles": n, "kind": kind},
	})
	r.skips++
	r.skipLen.Observe(n)
}

// PrefetchTrain records one hardware-prefetcher drain: the engine at
// level injected issued requests into the hierarchy at cycle.
func (r *Recorder) PrefetchTrain(cycle int64, level string, issued int) {
	r.events = append(r.events, Event{
		Name: "pf train " + level, Cat: catPrefetch, Ph: "i",
		Ts: cycle, Pid: r.pid, Tid: tidMem, S: "t",
		Args: map[string]any{"level": level, "issued": issued},
	})
	r.trains++
}

// Throttle records one per-epoch adaptive-degree feedback decision: the
// engine at level moved its effective degree from 'from' to 'to' given
// the epoch's lifetime accuracy. A degree of -1 means the engine does
// not report one.
func (r *Recorder) Throttle(cycle int64, level string, from, to int, accuracy float64) {
	r.events = append(r.events, Event{
		Name: "throttle " + level, Cat: catPrefetch, Ph: "i",
		Ts: cycle, Pid: r.pid, Tid: tidMem, S: "t",
		Args: map[string]any{"level": level, "from": from, "to": to, "accuracy": accuracy},
	})
	r.throttles++
}

// Finish closes any open spans at the end-of-measurement cycle and
// publishes the recorder's own distributions into its registry. Further
// events are not expected but not rejected.
func (r *Recorder) Finish(now int64) {
	if r.epOpen {
		r.closeEpisode(now, 0, 0, 0, true)
	}
	r.closeStall()
	if !r.finished {
		r.finished = true
		reg := r.Metrics()
		reg.Counter("trace/episodes", int64(r.episodes))
		reg.Counter("trace/skips", int64(r.skips))
		reg.Counter("trace/pf_trains", int64(r.trains))
		reg.Counter("trace/throttle_decisions", int64(r.throttles))
		reg.Histogram("trace/episode_cycles", r.epLen)
		reg.Histogram("trace/episode_prefetches", r.pfSet)
		reg.Histogram("trace/skip_span_cycles", r.skipLen)
	}
}

// Episodes returns the number of closed runahead-episode spans.
func (r *Recorder) Episodes() int { return r.episodes }

// Events returns the recorded events (metadata included), in emission
// order. The returned slice is the recorder's own; callers must not
// mutate it.
func (r *Recorder) Events() []Event { return r.events }

// Metrics returns the recorder's registry, creating it on first use.
// Simulation components publish their counter snapshots here after the
// run (see core/mem PublishMetrics); the snapshot rides in the trace
// document's "metrics" block, which trace viewers ignore.
func (r *Recorder) Metrics() *Registry {
	if r.reg == nil {
		r.reg = NewRegistry()
	}
	return r.reg
}

// doc is the serialized single-recorder trace document. Viewers consume
// traceEvents and ignore the extra top-level keys.
type doc struct {
	TraceEvents     []Event   `json:"traceEvents"`
	DisplayTimeUnit string    `json:"displayTimeUnit"`
	Metrics         *Registry `json:"metrics,omitempty"`
}

// mergedDoc is the serialized multi-recorder document (one process per
// run; per-run metric snapshots keyed by pid).
type mergedDoc struct {
	TraceEvents     []Event          `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
	Processes       []ProcessMetrics `json:"processes,omitempty"`
}

// ProcessMetrics pairs one merged run's identity with its metric
// snapshot.
type ProcessMetrics struct {
	Pid     int       `json:"pid"`
	Name    string    `json:"name"`
	Metrics *Registry `json:"metrics,omitempty"`
}

// WriteJSON serializes the recorder as one Chrome-trace JSON document.
func (r *Recorder) WriteJSON(w io.Writer) error {
	return writeDoc(w, doc{TraceEvents: r.events, DisplayTimeUnit: "ns", Metrics: r.reg})
}

// WriteFile writes the trace document to path.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteMerged serializes several recorders (e.g. one per unique sweep
// run) into a single trace document: each run appears as its own process
// row, and each run's metric snapshot rides in the "processes" block.
func WriteMerged(w io.Writer, recs []*Recorder) error {
	m := mergedDoc{DisplayTimeUnit: "ns"}
	for _, r := range recs {
		if r == nil {
			continue
		}
		m.TraceEvents = append(m.TraceEvents, r.events...)
		m.Processes = append(m.Processes, ProcessMetrics{Pid: r.pid, Name: r.name, Metrics: r.reg})
	}
	if m.TraceEvents == nil {
		m.TraceEvents = []Event{}
	}
	return writeDoc(w, m)
}

// WriteMergedFile writes the merged trace document to path.
func WriteMergedFile(path string, recs []*Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteMerged(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeDoc(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// hex formats a PC the way disassembly listings do.
func hex(v uint64) string {
	const digits = "0123456789abcdef"
	buf := [18]byte{'0', 'x'}
	n := 2
	shift := 60
	started := false
	for ; shift >= 0; shift -= 4 {
		d := (v >> uint(shift)) & 0xf
		if d == 0 && !started && shift > 0 {
			continue
		}
		started = true
		buf[n] = digits[d]
		n++
	}
	return string(buf[:n])
}
