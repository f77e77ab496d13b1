package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/serve"
	"repro/internal/serve/cache"
	"repro/internal/sim"
)

const (
	// workers is the simulation pool width: the benchmark host has two
	// CPUs, and every workload runs its sweeps two cells at a time.
	workers = 2
	// cacheEntries bounds the in-memory result cache; it exceeds every
	// workload's unique-run count, so warm jobs never touch the disk.
	cacheEntries = 1024
	// jobTimeout bounds one job, so a hung server cannot hold the run
	// past its deadline.
	jobTimeout = 120 * time.Second
)

// keyed is one freshly simulated unique run, as exp's Store hook hands it
// over.
type keyed struct {
	key exp.CellKey
	res sim.Result
}

// runner executes one workload. tr is nil outside the traced pass.
type runner struct {
	wl   workloadDef
	set  settings
	spec serve.JobSpec
	tmp  string // scratch directory for on-disk caches, removed at exit
	hc   *http.Client
	chk  *checker
	tr   *tracer
	dirs int // scratch directories handed out so far
}

// newDir returns a fresh, empty scratch directory.
func (r *runner) newDir(label string) string {
	r.dirs++
	return filepath.Join(r.tmp, fmt.Sprintf("%s-%d", label, r.dirs))
}

// repOut is what one repetition measured.
type repOut struct {
	setups []float64 // set-up seconds, one per timed set-up
	// setupYards and cellYards are yardstick seconds, timed before each
	// set-up and after each fresh cell.
	setupYards, cellYards []float64
	wall                  float64 // expand + simulate + encode
	peakRSS               int64   // bytes, the process's peak during the repetition
	uops                  int64   // µops simulated fresh
	doc                   []byte  // the results document
	fresh                 []keyed // freshly simulated runs
	meta                  exp.RunMeta
	// cellSecs sums the fresh cells' simulation seconds: the repetition's
	// simulation time in worker-seconds.
	cellSecs float64
}

// rep runs the workload's matrix through exp in this process: Matrix +
// Expand (timed set.setups times; the last plan runs), RunOpts on the
// worker pool, and WriteJSON.
//
//sim:wallclock benchmark timings are host measurements printed by the benchmark, never fed into a simulation
func (r *runner) rep(parent int) (repOut, error) {
	var out repOut
	var plan *exp.Plan
	var setup time.Duration
	// Set-up takes about a millisecond; without a collection first, the
	// previous repetition's garbage decides whether it runs beside a GC
	// cycle, which moved its median by half between otherwise equal runs.
	runtime.GC()
	if err := resetPeakRSS(); err != nil {
		return out, err
	}
	for k := 0; k < r.set.setups; k++ {
		out.setupYards = append(out.setupYards, yardstick().Seconds())
		start := time.Now()
		sp := r.tr.begin("setup", parent)
		m, err := r.spec.Matrix()
		if err != nil {
			return out, err
		}
		ex := r.tr.begin("Expand", sp)
		plan, err = m.Expand()
		r.tr.end(ex)
		r.tr.end(sp)
		if err != nil {
			return out, err
		}
		setup = time.Since(start)
		out.setups = append(out.setups, setup.Seconds())
	}

	var mu sync.Mutex
	store := func(k exp.CellKey, res sim.Result) {
		mu.Lock()
		out.fresh = append(out.fresh, keyed{k, res})
		mu.Unlock()
	}
	start := time.Now()
	sp := r.tr.begin("RunOpts", parent)
	base := r.tr.offset(start)
	// Progress calls are serialized, so out needs no lock. Each runs on
	// the worker goroutine that ran the cell, so the yardstick is timed on
	// that worker while the other one is still simulating.
	set, err := plan.RunOpts(exp.RunOptions{Workers: workers, Store: store, Progress: func(ev exp.ProgressEvent) {
		out.cellSecs += ev.Seconds
		out.cellYards = append(out.cellYards, yardstick().Seconds())
		end := base + time.Duration(ev.ElapsedSeconds*1e9)
		r.tr.add("cell/"+ev.Mode.String(), sp, end-time.Duration(ev.Seconds*1e9), end)
	}})
	r.tr.end(sp)
	if err != nil {
		return out, err
	}
	out.uops = int64(plan.NumUnique()) * (r.spec.WarmupUops + r.spec.MeasureUops)
	out.meta = set.Meta()

	sp = r.tr.begin("WriteJSON", parent)
	var buf bytes.Buffer
	err = set.WriteJSON(&buf)
	r.tr.end(sp)
	if err != nil {
		return out, err
	}
	out.doc = buf.Bytes()
	out.wall = setup.Seconds() + time.Since(start).Seconds()
	out.peakRSS, err = peakRSS()
	return out, err
}

// simd is one in-process simulation server behind httptest.
type simd struct {
	cache *cache.Cache
	srv   *serve.Server
	hs    *httptest.Server
	cl    *serve.Client
}

// bootSimd starts a server over the cache directory dir.
func (r *runner) bootSimd(dir string, parent int) (*simd, error) {
	sp := r.tr.begin("server start", parent)
	defer r.tr.end(sp)
	c, err := cache.New(cacheEntries, dir)
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Cache: c, SimWorkers: workers, JobWorkers: 1})
	hs := httptest.NewServer(srv.Handler())
	return &simd{cache: c, srv: srv, hs: hs, cl: &serve.Client{BaseURL: hs.URL, HTTP: r.hc}}, nil
}

// close stops the server: the listener first (waiting for in-flight
// requests), then the job workers, then the client's idle connection.
func (s *simd) close(hc *http.Client) {
	s.hs.Close()
	s.srv.Close()
	hc.CloseIdleConnections()
}

// jobOut is one job's client-side timing and document.
type jobOut struct {
	submit, wait, result, total time.Duration
	doc                         []byte
}

// job submits the workload's spec, waits on the job's event stream for
// the terminal event and fetches the result: the client path of
// cmd/sweep -server.
//
//sim:wallclock benchmark timings are host measurements printed by the benchmark, never fed into a simulation
func (r *runner) job(s *simd, parent int) (jobOut, error) {
	var out jobOut
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	jsp := r.tr.begin("job", parent)
	defer r.tr.end(jsp)

	start := time.Now()
	sp := r.tr.begin("Client.Submit", jsp)
	st, err := s.cl.Submit(ctx, r.spec)
	r.tr.end(sp)
	out.submit = time.Since(start)
	if err != nil {
		return out, err
	}

	t := time.Now()
	sp = r.tr.begin("Client.Wait", jsp)
	_, err = s.cl.Wait(ctx, st.ID, nil)
	r.tr.end(sp)
	out.wait = time.Since(t)
	if err != nil {
		return out, err
	}

	t = time.Now()
	sp = r.tr.begin("Client.Result", jsp)
	out.doc, err = s.cl.Result(ctx, st.ID)
	r.tr.end(sp)
	out.result = time.Since(t)
	out.total = time.Since(start)
	return out, err
}

// serviceOut is what the service leg measured.
type serviceOut struct {
	warm, disk []jobOut
	hitRate    float64 // the warm server's cache hit rate
}

// serviceLeg serves the workload's document from the result cache: a
// fresh server over a fresh directory is filled with the runs in fresh,
// then serves warm jobs (memory-tier hits, no simulation), then the first
// job after each of several restarts over the same directory (disk reads
// plus checksum verification). Every document must equal the reference
// document; a failed job counts as a failed operation and contributes no
// latency.
func (r *runner) serviceLeg(fresh []keyed, parent int) (serviceOut, error) {
	var out serviceOut
	dir := r.newDir("warm")
	warm, err := r.bootSimd(dir, parent)
	if err != nil {
		return out, err
	}
	for _, k := range fresh {
		warm.cache.Put(k.key, k.res)
	}
	sp := r.tr.begin("warm jobs", parent)
	for i := 0; i < r.set.warmJobs; i++ {
		j, err := r.job(warm, sp)
		r.chk.delivered(r.spec.Name, j.doc, err)
		if err == nil {
			out.warm = append(out.warm, j)
		}
	}
	r.tr.end(sp)
	out.hitRate = warm.srv.Stats().CacheHitRate
	warm.close(r.hc)

	sp = r.tr.begin("disk-warm jobs", parent)
	defer r.tr.end(sp)
	for i := 0; i < r.set.diskJobs; i++ {
		s, err := r.bootSimd(dir, sp)
		if err != nil {
			return out, err
		}
		j, err := r.job(s, sp)
		s.close(r.hc)
		r.chk.delivered(r.spec.Name, j.doc, err)
		if err == nil {
			out.disk = append(out.disk, j)
		}
	}
	return out, nil
}

// millis returns each job's Submit → result latency in milliseconds.
func millis(jobs []jobOut) []float64 {
	xs := make([]float64, len(jobs))
	for i, j := range jobs {
		xs[i] = j.total.Seconds() * 1e3
	}
	return xs
}

// scratchDir creates the run's scratch directory under .bench_build in
// the working directory.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "benchrec-run-*")
}
