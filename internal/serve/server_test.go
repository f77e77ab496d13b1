package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve/cache"
	"repro/internal/sim"
)

// testSpec is the canonical small job: a sampled synth population under
// two modes, the same shape the CI scenario-fuzz job submits.
func testSpec(seeds int) JobSpec {
	return JobSpec{
		Name:  "e2e",
		Modes: []string{"OoO", "PRE"},
		Population: &PopulationSpec{
			SpaceName: "default",
			Count:     seeds,
		},
		WarmupUops:  1_000,
		MeasureUops: 4_000,
	}
}

type testEnv struct {
	srv *Server
	ts  *httptest.Server
}

func newEnv(t *testing.T, cfg Config) *testEnv {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	// The job server closes first: that ends every open event stream,
	// which the listener's Close would otherwise wait on.
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	return &testEnv{srv: srv, ts: ts}
}

// longSpec is a job that is still running when a test acts on it. Its
// cells are short, because a cancelled job still finishes the cell in
// flight.
func longSpec() JobSpec {
	spec := testSpec(12)
	spec.MeasureUops = 300_000
	return spec
}

// waitRunning blocks until job id has left the queue.
//
//sim:wallclock test start-up deadline polling only
func (e *testEnv) waitRunning(t *testing.T, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, ok := e.srv.Job(id)
		if !ok {
			t.Fatal("job vanished")
		}
		if cur.State == StateRunning {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (e *testEnv) submit(t *testing.T, spec JobSpec) JobStatus {
	t.Helper()
	b, _ := json.Marshal(spec)
	resp, err := http.Post(e.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, msg.String())
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// streamEvents reads the NDJSON stream to its end and returns every
// event. The stream only ends when the job is terminal, so this doubles
// as "wait for the job".
func (e *testEnv) streamEvents(t *testing.T, id string) []Event {
	t.Helper()
	evs, err := e.readEvents(id)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// readEvents is streamEvents for goroutines other than the test's own.
func (e *testEnv) readEvents(id string) ([]Event, error) {
	resp, err := http.Get(e.ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		return nil, fmt.Errorf("events content type = %q", ct)
	}
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	return evs, sc.Err()
}

func (e *testEnv) result(t *testing.T, id string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(e.ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.Bytes(), resp.StatusCode
}

func (e *testEnv) stats(t *testing.T) Stats {
	t.Helper()
	resp, err := http.Get(e.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// The headline flow: the same sweep submitted twice. The second run must
// be served from cache (>= 90% hits — here 100%) and return the exact
// bytes of the first.
func TestServerDoubleSubmitByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	c, err := cache.New(256, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	env := newEnv(t, Config{Cache: c, SimWorkers: 2})

	spec := testSpec(4)
	st1 := env.submit(t, spec)
	if st1.State != StateQueued {
		t.Fatalf("submitted job state = %q", st1.State)
	}
	evs1 := env.streamEvents(t, st1.ID)
	if last := evs1[len(evs1)-1]; last.Type != StateDone {
		t.Fatalf("job 1 terminal event = %+v", last)
	}
	res1, code := env.result(t, st1.ID)
	if code != http.StatusOK {
		t.Fatalf("result 1: status %d: %s", code, res1)
	}

	st2 := env.submit(t, spec)
	evs2 := env.streamEvents(t, st2.ID)
	if last := evs2[len(evs2)-1]; last.Type != StateDone {
		t.Fatalf("job 2 terminal event = %+v", last)
	}
	res2, code := env.result(t, st2.ID)
	if code != http.StatusOK {
		t.Fatalf("result 2: status %d", code)
	}
	if !bytes.Equal(res1, res2) {
		t.Fatal("cached resubmission is not byte-identical to the cold run")
	}

	// Every cell event of run 2 must be a cache hit.
	var cells2, cached2 int
	for _, ev := range evs2 {
		if ev.Type == "cell" {
			cells2++
			if ev.Cached {
				cached2++
			}
		}
	}
	if cells2 == 0 || cached2 != cells2 {
		t.Errorf("run 2 cached cells = %d/%d, want all cached", cached2, cells2)
	}

	final, ok := env.srv.Job(st2.ID)
	if !ok || final.State != StateDone {
		t.Fatalf("job 2 final status: %+v", final)
	}
	if final.CacheHits != final.NumUnique {
		t.Errorf("job 2 cache hits = %d, want %d", final.CacheHits, final.NumUnique)
	}
	if final.Meta == nil || final.Meta.CacheHits != final.NumUnique {
		t.Errorf("job 2 meta missing hit accounting: %+v", final.Meta)
	}

	stats := env.stats(t)
	if stats.JobsCompleted != 2 || stats.JobsSubmitted != 2 {
		t.Errorf("stats jobs = %+v", stats)
	}
	if stats.CacheHitRate < 0.45 { // run1 all misses, run2 all hits => 0.5
		t.Errorf("stats hit rate = %v, want ~0.5", stats.CacheHitRate)
	}
	if len(stats.Jobs) != 2 {
		t.Fatalf("stats.Jobs = %+v, want 2 timings", stats.Jobs)
	}
	for _, jt := range stats.Jobs {
		if jt.WallClockSeconds <= 0 {
			t.Errorf("job %s wall clock = %v, want > 0", jt.ID, jt.WallClockSeconds)
		}
	}
}

func TestServerHealthAndMetrics(t *testing.T) {
	env := newEnv(t, Config{})
	resp, err := http.Get(env.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}

	resp, err = http.Get(env.ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	for _, name := range []string{"serve/cache/hits", "serve/jobs/submitted", "serve/queue/depth"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("metrics missing %q:\n%s", name, buf.String())
		}
	}
}

func TestServerRejectsBadSpecs(t *testing.T) {
	env := newEnv(t, Config{})
	bad := []struct {
		name, body string
		want       string // substring of the error message, "" for any
	}{
		{"not json", "{nope", ""},
		{"no modes", `{"workloads":["mcf"],"measure_uops":1000}`, ""},
		{"unknown mode", `{"modes":["warp-drive"],"workloads":["mcf"],"measure_uops":1000}`, ""},
		{"no workloads", `{"modes":["OoO"],"measure_uops":1000}`, ""},
		{"no window", `{"modes":["OoO"],"workloads":["mcf"]}`, ""},
		{"unknown knob", `{"modes":["OoO"],"workloads":["mcf"],"measure_uops":1000,"points":[{"name":"p","knobs":{"warp_factor":9}}]}`, ""},
		{"unknown space", `{"modes":["OoO"],"measure_uops":1000,"population":{"space_name":"nope","count":2}}`, ""},
		// Unbounded knobs and population counts would size a slice past
		// memory; Go's out-of-memory is fatal, not a recoverable panic.
		{"huge knob", `{"modes":["PRE"],"workloads":["mcf"],"measure_uops":1000,"points":[{"name":"p","knobs":{"sst_size":8589934592}}]}`, "sst_size"},
		{"huge mshrs", `{"modes":["OoO"],"workloads":["mcf"],"measure_uops":1000,"points":[{"name":"p","knobs":{"l1d_mshrs":8589934592}}]}`, "l1d_mshrs"},
		{"huge population", `{"modes":["OoO"],"measure_uops":1000,"population":{"space_name":"default","count":68719476736}}`, "count"},
		// Specs naming removed options must not run without them.
		{"stale field", `{"modes":["PRE"],"workloads":["mcf"],"measure_uops":1000,"fidelity":"fast-runahead"}`, "fidelity"},
		{"stale knob", `{"modes":["PRE"],"workloads":["mcf"],"measure_uops":1000,"points":[{"name":"p","knobs":{"chain_cache_size":64}}]}`, "chain_cache_size"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(env.ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", resp.StatusCode)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Errorf("400 body lacks an error message (%v)", err)
			}
			if !strings.Contains(e.Error, tc.want) {
				t.Errorf("error %q does not name %q", e.Error, tc.want)
			}
		})
	}
	resp, err := http.Get(env.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after bad specs: status %d", resp.StatusCode)
	}
}

func TestServerUnknownJob(t *testing.T) {
	env := newEnv(t, Config{})
	for _, req := range []struct{ method, path string }{
		{"GET", "/v1/jobs/nope"},
		{"GET", "/v1/jobs/nope/events"},
		{"GET", "/v1/jobs/nope/result"},
		{"DELETE", "/v1/jobs/nope"},
	} {
		r, _ := http.NewRequest(req.method, env.ts.URL+req.path, nil)
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", req.method, req.path, resp.StatusCode)
		}
	}
}

// Cancellation: a running job cancelled over HTTP must converge to the
// cancelled state with a clean terminal event — on a stream opened while
// it ran and on one opened afterwards — and its result endpoint must
// report the state instead of hanging or returning partial data.
func TestServerCancelRunningJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	env := newEnv(t, Config{SimWorkers: 1})
	st := env.submit(t, longSpec())
	env.waitRunning(t, st.ID)

	type stream struct {
		evs []Event
		err error
	}
	live := make(chan stream, 1)
	go func() {
		evs, err := env.readEvents(st.ID)
		live <- stream{evs, err}
	}()

	r, _ := http.NewRequest("DELETE", env.ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(r)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}

	during := <-live
	if during.err != nil {
		t.Fatal(during.err)
	}
	evs := env.streamEvents(t, st.ID) // ends only at the terminal event
	if !reflect.DeepEqual(during.evs, evs) {
		t.Errorf("stream opened while running = %+v, stream opened after = %+v", during.evs, evs)
	}
	last := evs[len(evs)-1]
	if last.Type != StateCancelled {
		t.Fatalf("terminal event = %+v, want cancelled", last)
	}
	if last.Error == "" || !strings.Contains(last.Error, "cancelled") {
		t.Errorf("cancelled event error = %q, want a clean cancellation message", last.Error)
	}
	if _, code := env.result(t, st.ID); code != http.StatusConflict {
		t.Errorf("result of cancelled job: status %d, want 409", code)
	}
	if s := env.stats(t); s.JobsCancelled != 1 {
		t.Errorf("stats cancelled = %d, want 1", s.JobsCancelled)
	}
}

// Backpressure: with the single worker pinned on a long job and the
// queue full, further submissions are rejected with 503 instead of
// queueing without bound.
func TestServerQueueFull(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	env := newEnv(t, Config{SimWorkers: 1, QueueDepth: 1, JobWorkers: 1})
	st := env.submit(t, longSpec())
	defer env.srv.Cancel(st.ID)
	env.waitRunning(t, st.ID)
	// Worker busy; depth-1 queue takes exactly one more.
	st2 := env.submit(t, testSpec(1))
	defer env.srv.Cancel(st2.ID)

	b, _ := json.Marshal(testSpec(1))
	resp, err := http.Post(env.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-full submit: status %d, want 503", resp.StatusCode)
	}
}

// Fan-out: eight streams open on one queued multi-cell job each see the
// same sequence — one cell event per unique run, Done counting 1..N, then
// exactly one terminal event — and a stream opened after the job finished
// replays that sequence in full.
func TestServerEventStreamFanOut(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	env := newEnv(t, Config{SimWorkers: 1})
	blocker := env.submit(t, longSpec())
	env.waitRunning(t, blocker.ID)
	st := env.submit(t, testSpec(3))

	const subscribers = 8
	streams := make([][]Event, subscribers)
	errs := make([]error, subscribers)
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			streams[i], errs[i] = env.readEvents(st.ID)
		}(i)
	}
	env.srv.Cancel(blocker.ID)
	wg.Wait()

	final, _ := env.srv.Job(st.ID)
	n := final.NumUnique
	for i, evs := range streams {
		if errs[i] != nil {
			t.Fatalf("subscriber %d: %v", i, errs[i])
		}
		if len(evs) != n+1 {
			t.Fatalf("subscriber %d: %d events, want %d cells + 1 terminal: %+v", i, len(evs), n, evs)
		}
		for d, ev := range evs[:n] {
			if ev.Type != "cell" || ev.Done != d+1 || ev.Total != n {
				t.Errorf("subscriber %d event %d = %+v, want cell %d/%d", i, d, ev, d+1, n)
			}
		}
		if last := evs[n]; last.Type != StateDone {
			t.Errorf("subscriber %d terminal event = %+v, want done", i, last)
		}
		if !reflect.DeepEqual(evs, streams[0]) {
			t.Errorf("subscriber %d saw %+v, subscriber 0 saw %+v", i, evs, streams[0])
		}
	}

	if late := env.streamEvents(t, st.ID); !reflect.DeepEqual(late, streams[0]) {
		t.Errorf("stream opened after the job finished = %+v, want %+v", late, streams[0])
	}
	j := env.srv.job(st.ID)
	if evs, complete, _ := j.eventsSince(0); !complete || len(evs) != n+1 {
		t.Errorf("finished job: eventsSince(0) = %d events, complete %v; want %d, true", len(evs), complete, n+1)
	}
}

// Close must not strand queued jobs: with the one job worker busy, the
// two jobs behind it end as cancelled, their open streams receive the
// terminal event, and all three jobs count as cancelled.
func TestServerCloseFinishesQueuedJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	env := newEnv(t, Config{SimWorkers: 1, JobWorkers: 1})
	running := env.submit(t, longSpec())
	env.waitRunning(t, running.ID)
	queued := []string{env.submit(t, testSpec(1)).ID, env.submit(t, testSpec(1)).ID}

	streams := make([][]Event, len(queued))
	errs := make([]error, len(queued))
	var wg sync.WaitGroup
	for i, id := range queued {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			streams[i], errs[i] = env.readEvents(id)
		}(i, id)
	}
	env.srv.Close()
	wg.Wait()

	for i, id := range queued {
		if errs[i] != nil {
			t.Fatalf("job %s stream: %v", id, errs[i])
		}
		evs := streams[i]
		if len(evs) != 1 || evs[0].Type != StateCancelled {
			t.Errorf("job %s stream = %+v, want one cancelled event", id, evs)
		}
		if st, _ := env.srv.Job(id); st.State != StateCancelled {
			t.Errorf("job %s state = %q after Close, want cancelled", id, st.State)
		}
	}
	if st := env.srv.Stats(); st.JobsCancelled != 3 || st.QueueDepth != 0 {
		t.Errorf("after Close: cancelled %d, queue depth %d; want 3, 0", st.JobsCancelled, st.QueueDepth)
	}
}

// Every status POST /v1/jobs answers with: 202 for an accepted spec, 400
// for a malformed one, 413 for a body over the 1 MiB cap and 503 once the
// server is closed (a full queue is TestServerQueueFull).
func TestServerSubmitStatusCodes(t *testing.T) {
	env := newEnv(t, Config{})
	valid := `{"workloads":["mcf"],"modes":["OoO"],"measure_uops":1000}`
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(env.ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		if resp.StatusCode != http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Errorf("status %d body lacks an error message (%v)", resp.StatusCode, err)
			}
		}
		return resp.StatusCode
	}
	oversized := `{"name":"` + strings.Repeat("x", maxSpecBytes) + `",` + valid[1:]
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"accepted", valid, http.StatusAccepted},
		{"malformed", "{nope", http.StatusBadRequest},
		{"oversized", oversized, http.StatusRequestEntityTooLarge},
	} {
		if got := post(tc.body); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}
	env.srv.Close()
	if got := post(valid); got != http.StatusServiceUnavailable {
		t.Errorf("after Close: status %d, want 503", got)
	}
}

// Re-verification: with VerifyFraction=1 every hit re-simulates. A clean
// cache passes; a poisoned entry fails the job with a mismatch error.
func TestServerReVerification(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	c, err := cache.New(256, "")
	if err != nil {
		t.Fatal(err)
	}
	env := newEnv(t, Config{Cache: c, SimWorkers: 2, VerifyFraction: 1})

	spec := testSpec(2)
	st1 := env.submit(t, spec)
	env.streamEvents(t, st1.ID)
	res1, code := env.result(t, st1.ID)
	if code != http.StatusOK {
		t.Fatalf("cold run failed: %s", res1)
	}

	// Clean cache: full re-verification passes and matches bytes.
	st2 := env.submit(t, spec)
	env.streamEvents(t, st2.ID)
	res2, code := env.result(t, st2.ID)
	if code != http.StatusOK {
		t.Fatalf("verified run failed: %s", res2)
	}
	if !bytes.Equal(res1, res2) {
		t.Fatal("verified run not byte-identical")
	}
	if s := env.stats(t); s.VerifiedHits == 0 || s.VerifyFailures != 0 {
		t.Fatalf("verify counters after clean runs: %+v", s)
	}

	// Poison one entry: same key, wrong result. The next submission must
	// detect the divergence and fail.
	m, err := spec.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	k := plan.Key(0)
	c.Put(k, sim.Result{Workload: k.Workload, Cycles: 123456789})

	st3 := env.submit(t, spec)
	evs := env.streamEvents(t, st3.ID)
	last := evs[len(evs)-1]
	if last.Type != StateFailed {
		t.Fatalf("poisoned-cache job terminal event = %+v, want failed", last)
	}
	if !strings.Contains(last.Error, "re-verification mismatch") {
		t.Errorf("failure message = %q, want a re-verification mismatch", last.Error)
	}
	if s := env.stats(t); s.VerifyFailures == 0 {
		t.Errorf("verify failures not counted: %+v", s)
	}
}

// The declarative spec must reach every compile path: fixed workloads,
// points with variants and knobs, baseline injection.
func TestJobSpecCompilesFullMatrix(t *testing.T) {
	spec := JobSpec{
		Name:      "full",
		Workloads: []string{"mcf", "libquantum"},
		Modes:     []string{"PRE"},
		Points: []PointSpec{
			{Name: "base"},
			{Name: "sst=256", Knobs: map[string]int64{"sst_size": 256}},
			{Name: "stride", PrefetchVariant: "stride"},
		},
		MeasureUops: 10_000,
		AddBaseline: true,
	}
	m, err := spec.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 3 points x 2 workloads x PRE = 6 cells; the injected OoO baselines
	// are extra unique runs (one per point x workload), not cells.
	if got := plan.NumCells(); got != 6 {
		t.Errorf("cells = %d, want 6", got)
	}
	// Injected baselines add unique runs beyond the cells (dedup may
	// collapse baselines whose canonical OoO configs coincide).
	if plan.NumUnique() <= plan.NumCells() {
		t.Errorf("unique runs = %d, want > %d (baselines injected)", plan.NumUnique(), plan.NumCells())
	}
	// The knob must actually land in the config of its point's cells.
	found := false
	for ui := 0; ui < plan.NumUnique(); ui++ {
		k := plan.Key(ui)
		if k.Config.SSTSize == 256 {
			found = true
		}
	}
	if !found {
		t.Error("sst_size knob never reached a cell config")
	}
	if _, err := json.Marshal(spec); err != nil {
		t.Errorf("spec must round-trip as JSON: %v", err)
	}
}

func TestKnobNamesSortedAndComplete(t *testing.T) {
	names := KnobNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("KnobNames not sorted: %v", names)
		}
	}
	if len(names) != len(knobSetters) {
		t.Fatalf("KnobNames incomplete: %v", names)
	}
}

// Retention: past maxFinishedJobs finished jobs the one that finished
// first is forgotten (404 on every endpoint) while newer ones stay, and
// a job still running is never evicted however old it is.
func TestServerEvictsOldestFinishedJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	c, err := cache.New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	env := newEnv(t, Config{SimWorkers: 1, JobWorkers: 2, Cache: c})
	blocker := env.submit(t, longSpec())
	defer env.srv.Cancel(blocker.ID)
	env.waitRunning(t, blocker.ID)

	var ids []string
	for i := 0; i < maxFinishedJobs+2; i++ {
		st := env.submit(t, testSpec(1))
		env.streamEvents(t, st.ID)
		ids = append(ids, st.ID)
	}
	for _, id := range ids[:2] {
		if _, ok := env.srv.Job(id); ok {
			t.Errorf("job %s retained past the bound", id)
		}
		for _, path := range []string{"", "/events", "/result"} {
			resp, err := http.Get(env.ts.URL + "/v1/jobs/" + id + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("GET evicted job %s%s: status %d, want 404", id, path, resp.StatusCode)
			}
		}
	}
	for _, id := range ids[2:] {
		if _, code := env.result(t, id); code != http.StatusOK {
			t.Fatalf("retained job %s: result status %d, want 200", id, code)
		}
	}
	if st, ok := env.srv.Job(blocker.ID); !ok || st.State != StateRunning {
		t.Errorf("running job evicted or finished early: %+v, %v", st, ok)
	}
	env.srv.mu.Lock()
	retained, order := len(env.srv.jobs), len(env.srv.order)
	env.srv.mu.Unlock()
	if retained != maxFinishedJobs+1 || order != retained {
		t.Errorf("server retains %d jobs (%d ordered), want %d", retained, order, maxFinishedJobs+1)
	}
}

// A client that sends a job spec's headers and then stalls mid-body gets a
// 408 once the read deadline passes, and its connection is closed. The
// deadline covers that one request: the server keeps serving, and an event
// stream read on the connection that submitted its job runs past the
// deadline without being cut off.
//
//sim:wallclock test deadlines and stream duration only
func TestServerSpecReadDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	const deadline = 100 * time.Millisecond
	srv := New(Config{SimWorkers: 1})
	srv.specTimeout = deadline
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	dial := func() (net.Conn, *bufio.Reader) {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		return conn, bufio.NewReader(conn)
	}
	post := func(conn net.Conn, length int, body string) {
		fmt.Fprintf(conn, "POST /v1/jobs HTTP/1.1\r\nHost: simd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", length, body)
	}

	// Six bytes of a promised thousand, then silence.
	conn, br := dial()
	start := time.Now()
	post(conn, 1000, `{"name`)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("stalled body: no response: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("stalled body: status %d, want 408", resp.StatusCode)
	}
	if waited := time.Since(start); waited < deadline {
		t.Errorf("408 after %v, before the %v deadline", waited, deadline)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Errorf("connection still open after the 408: read error %v", err)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after a timed-out spec: status %d", hz.StatusCode)
	}

	// Submit a job and stream its events over one connection.
	spec := testSpec(2)
	spec.MeasureUops = 500_000
	b, _ := json.Marshal(spec)
	conn, br = dial()
	post(conn, len(b), string(b))
	resp, err = http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	start = time.Now()
	fmt.Fprintf(conn, "GET /v1/jobs/%s/events HTTP/1.1\r\nHost: simd\r\n\r\n", st.ID)
	resp, err = http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("event stream cut off: %v", err)
	}
	if last.Type != StateDone {
		t.Fatalf("event stream ended with %+v, want a done event", last)
	}
	if streamed := time.Since(start); streamed <= deadline {
		t.Fatalf("job streamed for only %v; it must outlive the %v deadline", streamed, deadline)
	}
}

// Submit answers with the job's state at enqueue time: "queued", even
// when an idle worker picks the job up before Submit returns. Warm cache
// hits make every job after the first finish almost at once, so workers
// race each submission.
func TestServerSubmitAnswersQueued(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	c, err := cache.New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 2000
	srv := New(Config{SimWorkers: 1, JobWorkers: 4, QueueDepth: jobs, Cache: c})
	defer srv.Close()
	spec := JobSpec{Workloads: []string{"mcf"}, Modes: []string{"OoO"}, MeasureUops: 1_000}
	late := 0
	for i := 0; i < jobs; i++ {
		st, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateQueued {
			late++
		}
	}
	if late > 0 {
		t.Errorf("%d of %d submissions answered a state other than %q", late, jobs, StateQueued)
	}
}
