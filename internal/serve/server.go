// Package serve is the simulation job server behind cmd/simd: sweeps as
// a service. Clients POST a declarative JobSpec, the server expands it
// through the same orchestrator every local sweep uses (internal/exp),
// runs only the cells the content-addressed result cache cannot supply,
// and streams per-cell completion events over NDJSON while the job runs.
// Because results JSON is byte-identical at any worker count and a cache
// key identifies a run completely (exp.CellKey), a cached job's document
// is byte-for-byte the document a cold run would have produced — which
// the opt-in re-verification mode spot-checks by re-simulating a sampled
// fraction of hits and failing the job on any divergence.
//
// Endpoints:
//
//	POST   /v1/jobs             submit a JobSpec (at most 1 MiB), get a
//	                            JobStatus
//	GET    /v1/jobs/{id}        poll one job's JobStatus
//	GET    /v1/jobs/{id}/events NDJSON per-cell event stream (ends with
//	                            a terminal done/failed/cancelled event)
//	GET    /v1/jobs/{id}/result the schema-versioned results JSON
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/stats            queue depth, cache hit rate, timings
//	GET    /v1/metrics          the same, as a telemetry metrics snapshot
//	GET    /healthz             liveness
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"context"

	"repro/internal/exp"
	"repro/internal/serve/cache"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Config parameterizes a Server.
type Config struct {
	// Cache is the shared result cache; nil runs every cell cold.
	Cache *cache.Cache
	// SimWorkers is the per-job simulation pool width (0 = one per CPU).
	SimWorkers int
	// QueueDepth bounds the number of jobs waiting to run; submissions
	// beyond it are rejected with 503 instead of queueing unboundedly.
	// 0 selects a default of 64.
	QueueDepth int
	// JobWorkers is the number of jobs executing concurrently (each with
	// its own SimWorkers-wide pool). 0 selects 1 — jobs queue FIFO and
	// each saturates the machine in turn.
	JobWorkers int
	// VerifyFraction re-simulates roughly this fraction of cache hits
	// (deterministically sampled by key hash) and fails the job if a
	// re-simulated result diverges from the cached one. 0 disables
	// re-verification; 1 re-simulates every hit.
	VerifyFraction float64
}

// Event is one NDJSON line of a job's event stream. Type "cell" reports
// a completed unique run; the terminal types "done", "failed" and
// "cancelled" are always the last line.
type Event struct {
	Type           string  `json:"type"`
	Done           int     `json:"done,omitempty"`
	Total          int     `json:"total,omitempty"`
	Workload       string  `json:"workload,omitempty"`
	Mode           string  `json:"mode,omitempty"`
	Cached         bool    `json:"cached,omitempty"`
	Seconds        float64 `json:"seconds,omitempty"`
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
	Error          string  `json:"error,omitempty"`
}

// JobStatus is the polled view of one job.
type JobStatus struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	State string `json:"state"`
	// NumCells and NumUnique mirror the plan; DoneCells counts completed
	// unique runs so far.
	NumCells  int `json:"num_cells"`
	NumUnique int `json:"num_unique"`
	DoneCells int `json:"done_cells"`
	// CacheHits / CacheMisses split the completed unique runs.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// Error is set for failed jobs.
	Error string `json:"error,omitempty"`
	// Meta carries the run's execution record once the job is done —
	// wall-clock, pool width, per-cell timing aggregates, utilization.
	Meta *exp.RunMeta `json:"meta,omitempty"`
}

// JobTiming is one completed job's timing summary, reported by /v1/stats
// so hot-vs-cold wall-clock is comparable without fetching each job.
type JobTiming struct {
	ID               string  `json:"id"`
	Name             string  `json:"name,omitempty"`
	State            string  `json:"state"`
	UniqueRuns       int     `json:"unique_runs"`
	CacheHits        int     `json:"cache_hits"`
	WallClockSeconds float64 `json:"wall_clock_seconds"`
}

// Stats is the /v1/stats document.
type Stats struct {
	QueueDepth     int         `json:"queue_depth"`
	RunningJobs    int         `json:"running_jobs"`
	JobsSubmitted  int64       `json:"jobs_submitted"`
	JobsCompleted  int64       `json:"jobs_completed"`
	JobsFailed     int64       `json:"jobs_failed"`
	JobsCancelled  int64       `json:"jobs_cancelled"`
	Cache          cache.Stats `json:"cache"`
	CacheHitRate   float64     `json:"cache_hit_rate"`
	VerifiedHits   int64       `json:"verified_hits"`
	VerifyFailures int64       `json:"verify_failures"`
	// CellSecondsTotal and WallClockSecondsTotal aggregate the RunMeta
	// timings of every completed job.
	CellSecondsTotal      float64 `json:"cell_seconds_total"`
	WallClockSecondsTotal float64 `json:"wall_clock_seconds_total"`
	// Jobs lists recent completed/failed/cancelled jobs, newest last
	// (bounded; see maxTimings).
	Jobs []JobTiming `json:"jobs,omitempty"`
}

// maxTimings bounds Stats.Jobs.
const maxTimings = 50

// maxFinishedJobs bounds how many finished jobs the server retains. Each
// one holds its plan, events and results document; past the bound the
// job that finished first is forgotten and its id answers 404. Queued
// and running jobs are never evicted.
const maxFinishedJobs = 128

// job is the server-side state of one submission.
type job struct {
	id     string
	spec   JobSpec
	plan   *exp.Plan
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	state  string
	events []Event
	// changed is closed and replaced, under mu, whenever an event is
	// appended: an event stream waits on the channel it read alongside
	// the events, so it wakes for every later event without polling.
	changed    chan struct{}
	errMsg     string
	resultJSON []byte
	meta       *exp.RunMeta
	hits, miss int
	// pendingVerify holds cached results whose keys were sampled for
	// re-verification: the lookup returned "miss" to force a fresh
	// simulation, and the store compares it against this expectation.
	pendingVerify map[string]sim.Result
	verifyErr     error
	startedAt     time.Time
}

// Server runs jobs from a bounded queue on a fixed set of job workers.
type Server struct {
	cfg   Config
	mu    sync.Mutex
	jobs  map[string]*job
	order []string // ids of retained jobs, in submission order
	// finished lists the ids of retained finished jobs, oldest first.
	finished []string
	next     int

	submitted, completed, failed, cancelled int64
	verifiedHits, verifyFailures            int64
	cellSecondsTotal, wallSecondsTotal      float64
	running                                 int
	timings                                 []JobTiming
	// closed is set by Close; Submit rejects jobs from then on, so none
	// can land in the queue after Close has drained it.
	closed bool

	queue chan *job
	quit  chan struct{}
	wg    sync.WaitGroup

	// specTimeout bounds reading a job spec's body (specReadTimeout;
	// tests shorten it).
	specTimeout time.Duration
}

// New builds a Server and starts its job workers. Close releases them.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 1
	}
	s := &Server{
		cfg:         cfg,
		jobs:        make(map[string]*job),
		queue:       make(chan *job, cfg.QueueDepth),
		quit:        make(chan struct{}),
		specTimeout: specReadTimeout,
	}
	for i := 0; i < cfg.JobWorkers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				select {
				case <-s.quit:
					return
				case j := <-s.queue:
					s.runJob(j)
				}
			}
		}()
	}
	return s
}

// Close cancels every job, stops the workers after their current job and
// finishes each job still queued as cancelled, so every event stream ends
// with a terminal event. Later submissions are rejected; a second Close
// is a no-op.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, id := range s.order {
		s.jobs[id].cancel()
	}
	s.mu.Unlock()
	close(s.quit)
	s.wg.Wait()
	for {
		select {
		case j := <-s.queue:
			s.finish(j, StateCancelled, nil, nil, "cancelled while queued")
		default:
			return
		}
	}
}

// Submit validates a spec, expands it, and enqueues the job. It returns
// the queued job's status; spec errors come back unwrapped so HTTP can
// report them as 400s.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	m, err := spec.Matrix()
	if err != nil {
		return JobStatus{}, err
	}
	plan, err := m.Expand()
	if err != nil {
		return JobStatus{}, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		spec: spec, plan: plan, ctx: ctx, cancel: cancel,
		state:         StateQueued,
		changed:       make(chan struct{}),
		pendingVerify: make(map[string]sim.Result),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return JobStatus{}, errClosed
	}
	s.next++
	j.id = "j" + strconv.Itoa(s.next)
	// Read the status before the send: once queued, a worker may start
	// the job before Submit returns.
	st := j.status()
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		cancel()
		return JobStatus{}, errQueueFull
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.submitted++
	s.mu.Unlock()
	return st, nil
}

// errQueueFull and errClosed distinguish an unavailable server (503) from
// bad specs (400).
var (
	errQueueFull = fmt.Errorf("serve: job queue full, retry later")
	errClosed    = fmt.Errorf("serve: server is shutting down")
)

// Job returns the status of one job.
func (s *Server) Job(id string) (JobStatus, bool) {
	if j := s.job(id); j != nil {
		return j.status(), true
	}
	return JobStatus{}, false
}

// Cancel cancels a queued or running job. Cancelling a finished job is a
// no-op; unknown ids report false.
func (s *Server) Cancel(id string) bool {
	j := s.job(id)
	if j == nil {
		return false
	}
	j.cancel()
	return true
}

// Result returns a finished job's results document.
func (s *Server) Result(id string) ([]byte, error) {
	j := s.job(id)
	if j == nil {
		return nil, fmt.Errorf("serve: unknown job %q", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone:
		return j.resultJSON, nil
	case StateFailed, StateCancelled:
		return nil, fmt.Errorf("serve: job %s %s: %s", id, j.state, j.errMsg)
	default:
		return nil, fmt.Errorf("serve: job %s still %s", id, j.state)
	}
}

func (s *Server) job(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Stats snapshots the server-wide counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		QueueDepth:            len(s.queue),
		RunningJobs:           s.running,
		JobsSubmitted:         s.submitted,
		JobsCompleted:         s.completed,
		JobsFailed:            s.failed,
		JobsCancelled:         s.cancelled,
		VerifiedHits:          s.verifiedHits,
		VerifyFailures:        s.verifyFailures,
		CellSecondsTotal:      s.cellSecondsTotal,
		WallClockSecondsTotal: s.wallSecondsTotal,
		Jobs:                  append([]JobTiming(nil), s.timings...),
	}
	if s.cfg.Cache != nil {
		st.Cache = s.cfg.Cache.Stats()
		st.CacheHitRate = st.Cache.HitRate()
	}
	return st
}

// Metrics publishes the server's counters into a fresh telemetry
// registry — the same namespace idiom the simulator's own counters use,
// so one scrape format covers both.
func (s *Server) Metrics() *telemetry.Registry {
	st := s.Stats()
	reg := telemetry.NewRegistry()
	reg.Counter("serve/jobs/submitted", st.JobsSubmitted)
	reg.Counter("serve/jobs/completed", st.JobsCompleted)
	reg.Counter("serve/jobs/failed", st.JobsFailed)
	reg.Counter("serve/jobs/cancelled", st.JobsCancelled)
	reg.Counter("serve/queue/depth", int64(st.QueueDepth))
	reg.Counter("serve/queue/running", int64(st.RunningJobs))
	reg.Counter("serve/cache/hits", st.Cache.Hits)
	reg.Counter("serve/cache/misses", st.Cache.Misses)
	reg.Counter("serve/cache/evictions", st.Cache.Evictions)
	reg.Counter("serve/cache/disk_hits", st.Cache.DiskHits)
	reg.Counter("serve/cache/disk_writes", st.Cache.DiskWrites)
	reg.Counter("serve/cache/corrupt_rejected", st.Cache.CorruptRejected)
	reg.Counter("serve/verify/hits", st.VerifiedHits)
	reg.Counter("serve/verify/failures", st.VerifyFailures)
	reg.Gauge("serve/cache/hit_rate", st.CacheHitRate)
	reg.Gauge("serve/time/cell_seconds_total", st.CellSecondsTotal)
	reg.Gauge("serve/time/wall_clock_seconds_total", st.WallClockSecondsTotal)
	return reg
}

// shouldVerify deterministically samples keys for hit re-verification:
// the leading 8 hex digits of the content address, as a fraction of the
// 32-bit space. Deterministic sampling keeps cached sweeps reproducible
// — the same hits are re-checked on every run.
func (s *Server) shouldVerify(k exp.CellKey) bool {
	f := s.cfg.VerifyFraction
	if f <= 0 {
		return false
	}
	if f >= 1 {
		return true
	}
	v, err := strconv.ParseUint(k.Hash()[:8], 16, 64)
	if err != nil {
		return false
	}
	return float64(v) < f*float64(1<<32)
}

// runJob executes one job end to end on a worker goroutine.
func (s *Server) runJob(j *job) {
	if j.ctx.Err() != nil {
		s.finish(j, StateCancelled, nil, nil, "cancelled while queued")
		return
	}
	j.mu.Lock()
	j.state = StateRunning
	j.startedAt = time.Now() //sim:wallclock job timing for JobTiming/meta, not results
	j.mu.Unlock()
	s.mu.Lock()
	s.running++
	s.mu.Unlock()

	opts := exp.RunOptions{
		Workers: s.cfg.SimWorkers,
		Context: j.ctx,
		Progress: func(ev exp.ProgressEvent) {
			j.addEvent(Event{
				Type: "cell", Done: ev.Done, Total: ev.Total,
				Workload: ev.Workload, Mode: ev.Mode.String(),
				Cached: ev.Cached, Seconds: ev.Seconds,
				ElapsedSeconds: ev.ElapsedSeconds,
			}, ev.Cached)
		},
	}
	if c := s.cfg.Cache; c != nil {
		opts.Lookup = func(k exp.CellKey) (sim.Result, bool) {
			r, ok := c.Get(k)
			if !ok {
				return r, false
			}
			if s.shouldVerify(k) {
				// Force a fresh simulation; Store compares it against
				// this expectation. The forced run reports as a miss in
				// the job's hit accounting — it really did simulate.
				j.mu.Lock()
				j.pendingVerify[k.Hash()] = r
				j.mu.Unlock()
				return sim.Result{}, false
			}
			return r, true
		}
		opts.Store = func(k exp.CellKey, r sim.Result) {
			j.mu.Lock()
			expected, pending := j.pendingVerify[k.Hash()]
			delete(j.pendingVerify, k.Hash())
			j.mu.Unlock()
			if pending {
				s.mu.Lock()
				s.verifiedHits++
				if expected != r {
					s.verifyFailures++
				}
				s.mu.Unlock()
				if expected != r {
					j.mu.Lock()
					if j.verifyErr == nil {
						j.verifyErr = fmt.Errorf(
							"re-verification mismatch for %s/%s (key %s): cached result diverges from fresh simulation",
							r.Workload, r.Mode, k.Hash()[:12])
					}
					j.mu.Unlock()
					// Re-store the fresh result: on divergence the new
					// simulation is ground truth.
				}
			}
			c.Put(k, r)
		}
	}

	set, err := j.plan.RunOpts(opts)
	if err != nil {
		state := StateFailed
		if j.ctx.Err() != nil {
			state = StateCancelled
		}
		s.finish(j, state, nil, nil, err.Error())
		return
	}
	j.mu.Lock()
	verifyErr := j.verifyErr
	j.mu.Unlock()
	if verifyErr != nil {
		s.finish(j, StateFailed, nil, nil, verifyErr.Error())
		return
	}
	var buf bytes.Buffer
	if err := set.WriteJSON(&buf); err != nil {
		s.finish(j, StateFailed, nil, nil, err.Error())
		return
	}
	meta := set.Meta()
	s.finish(j, StateDone, buf.Bytes(), &meta, "")
}

// evict forgets a finished job. The caller holds s.mu.
func (s *Server) evict(id string) {
	delete(s.jobs, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// finish moves a job to a terminal state, appends the terminal event,
// and updates the server aggregates. The aggregates move first, so a
// client that has seen the terminal event also sees the job in Stats.
// Only one finish runs per job, so the job fields read before the
// aggregates cannot change before the job is made terminal.
func (s *Server) finish(j *job, state string, result []byte, meta *exp.RunMeta, errMsg string) {
	j.mu.Lock()
	wasRunning := j.state == StateRunning
	timing := JobTiming{
		ID: j.id, Name: j.spec.Name, State: state,
		UniqueRuns: j.plan.NumUnique(), CacheHits: j.hits,
	}
	if meta != nil {
		timing.WallClockSeconds = meta.WallClockSeconds
	} else if wasRunning {
		timing.WallClockSeconds = time.Since(j.startedAt).Seconds() //sim:wallclock job timing for JobTiming/meta, not results
	}
	j.mu.Unlock()

	s.mu.Lock()
	if wasRunning {
		s.running--
	}
	switch state {
	case StateDone:
		s.completed++
	case StateFailed:
		s.failed++
	case StateCancelled:
		s.cancelled++
	}
	if meta != nil {
		s.cellSecondsTotal += meta.CellSecondsTotal
		s.wallSecondsTotal += meta.WallClockSeconds
	}
	s.timings = append(s.timings, timing)
	if len(s.timings) > maxTimings {
		s.timings = s.timings[len(s.timings)-maxTimings:]
	}
	s.finished = append(s.finished, j.id)
	if len(s.finished) > maxFinishedJobs {
		s.evict(s.finished[0])
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()

	j.mu.Lock()
	j.state = state
	j.resultJSON = result
	j.meta = meta
	j.errMsg = errMsg
	ev := Event{Type: state}
	if errMsg != "" && state != StateDone {
		ev.Error = errMsg
	}
	j.appendEvent(ev)
	j.mu.Unlock()
}

// addEvent appends a cell event and updates hit accounting.
func (j *job) addEvent(ev Event, cached bool) {
	j.mu.Lock()
	j.appendEvent(ev)
	if cached {
		j.hits++
	} else {
		j.miss++
	}
	j.mu.Unlock()
}

// appendEvent records ev and wakes every stream waiting on the job. The
// caller holds j.mu.
func (j *job) appendEvent(ev Event) {
	j.events = append(j.events, ev)
	close(j.changed)
	j.changed = make(chan struct{})
}

// eventsSince returns events[from:], whether the stream is complete (the
// job is terminal and every event has been handed out), and the channel
// that is closed when the next event is appended. All three are read under
// one lock, so an event appended after this call always closes the
// returned channel.
func (j *job) eventsSince(from int) ([]Event, bool, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	evs := append([]Event(nil), j.events[from:]...)
	terminal := j.state == StateDone || j.state == StateFailed || j.state == StateCancelled
	return evs, terminal && from+len(evs) == len(j.events), j.changed
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.id, Name: j.spec.Name, State: j.state,
		NumCells: j.plan.NumCells(), NumUnique: j.plan.NumUnique(),
		DoneCells: j.hits + j.miss,
		CacheHits: j.hits, CacheMisses: j.miss,
		Error: j.errMsg,
		Meta:  j.meta,
	}
}

// maxSpecBytes caps a submitted JobSpec body; larger bodies get 413.
const maxSpecBytes = 1 << 20

// specReadTimeout bounds how long a job spec's body may take to arrive.
// The HTTP server's ReadHeaderTimeout covers only the headers, so without
// it a client trickling its body would hold a connection forever.
const specReadTimeout = 10 * time.Second

// decodeSpec reads a submitted JobSpec. Unknown fields are errors, so a
// stale spec that names a removed option gets a 400 instead of running
// without it.
func decodeSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		// The deadline lasts for this request only: the HTTP server resets
		// it before reading the connection's next request. Only a writer
		// without a connection (a test recorder) fails to set it.
		_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(s.specTimeout)) //sim:wallclock connection deadline, not results
		spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
		if err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			switch {
			case errors.As(err, &tooBig):
				code = http.StatusRequestEntityTooLarge
			case errors.Is(err, os.ErrDeadlineExceeded):
				code = http.StatusRequestTimeout
				err = fmt.Errorf("body not received within %v", s.specTimeout)
			}
			httpError(w, code, fmt.Errorf("decoding job spec: %w", err))
			return
		}
		st, err := s.Submit(spec)
		if errors.Is(err, errQueueFull) || errors.Is(err, errClosed) {
			httpError(w, http.StatusServiceUnavailable, err)
			return
		}
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := s.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !s.Cancel(r.PathValue("id")) {
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		b, err := s.Result(id)
		if err != nil {
			code := http.StatusConflict
			if _, ok := s.Job(id); !ok {
				code = http.StatusNotFound
			}
			httpError(w, code, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	return mux
}

// handleEvents streams a job's events as NDJSON: everything recorded so
// far, then each live event as soon as it is appended, until the terminal
// one. The stream is the natural "wait for completion" primitive — it
// ends exactly when the job does.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	from := 0
	for {
		evs, complete, changed := j.eventsSince(from)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		from += len(evs)
		if len(evs) > 0 && fl != nil {
			fl.Flush()
		}
		if complete {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-changed:
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
		return
	}
	w.Write(append(b, '\n'))
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
