// Command simd is the long-running simulation server: sweeps as a
// service. Clients POST declarative job specs (serve.JobSpec) and stream
// per-cell completion events; results are the same schema-versioned,
// byte-identical documents a local run writes, assembled from a
// content-addressed result cache whenever a cell has been simulated
// before — by this job, a previous job, or a previous server process
// (with -cache-dir).
//
//	simd -addr :8723 -cache-dir /var/cache/presim
//
//	curl -s localhost:8723/v1/jobs -d '{
//	  "modes": ["OoO","PRE"],
//	  "population": {"space_name": "default", "count": 4},
//	  "warmup_uops": 50000, "measure_uops": 200000
//	}'
//	curl -s localhost:8723/v1/jobs/j1/events   # NDJSON, ends when done
//	curl -s localhost:8723/v1/jobs/j1/result   # results JSON
//	curl -s localhost:8723/v1/stats            # queue + cache + timings
//
// Or programmatically, via presim.NewClient / presim.JobSpec (see
// examples/remotesweep).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/cache"
)

// options are simd's parsed command-line flags.
type options struct {
	addr, cacheDir                     string
	cacheCap                           int
	simWorkers, jobWorkers, queueDepth int
	verifyFraction                     float64
}

// parseFlags parses and validates args; a usage error has already been
// reported on stderr when it returns one.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("simd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.addr, "addr", ":8723", "listen address")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "persist cached results to this directory (empty = memory only)")
	fs.IntVar(&o.cacheCap, "cache-capacity", 4096, "in-memory result cache capacity (entries)")
	fs.IntVar(&o.simWorkers, "sim-workers", 0, "simulation pool width per job (0 = one per CPU)")
	fs.IntVar(&o.jobWorkers, "job-workers", 1, "jobs executing concurrently")
	fs.IntVar(&o.queueDepth, "queue-depth", 64, "max queued jobs before submissions get 503")
	fs.Float64Var(&o.verifyFraction, "verify-fraction", 0,
		"re-simulate this fraction of cache hits and fail jobs on divergence (0 = off, 1 = every hit)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.verifyFraction < 0 || o.verifyFraction > 1 {
		err := fmt.Errorf("-verify-fraction must be in [0,1] (got %v)", o.verifyFraction)
		fmt.Fprintln(stderr, "simd:", err)
		return o, err
	}
	return o, nil
}

// newHTTPServer serves h on addr. A client must send its request headers
// within ReadHeaderTimeout; the job API bounds a job spec's body itself,
// per request. There is no read or write timeout for the whole request,
// because an event stream lasts as long as its job.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// shutdown stops the job server first, which ends every open event stream
// with a terminal event, and then drains the HTTP server within timeout.
// In the other order the HTTP drain would wait on those streams.
func shutdown(srv *serve.Server, hs *http.Server, timeout time.Duration) error {
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return hs.Shutdown(ctx)
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}

	c, err := cache.New(o.cacheCap, o.cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(1)
	}
	srv := serve.New(serve.Config{
		Cache:          c,
		SimWorkers:     o.simWorkers,
		JobWorkers:     o.jobWorkers,
		QueueDepth:     o.queueDepth,
		VerifyFraction: o.verifyFraction,
	})

	hs := newHTTPServer(o.addr, srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "simd: listening on %s (cache dir %q, capacity %d, verify fraction %v)\n",
		o.addr, o.cacheDir, o.cacheCap, o.verifyFraction)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		srv.Close()
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "simd:", err)
			os.Exit(1)
		}
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "simd: %v, shutting down\n", s)
		if err := shutdown(srv, hs, 5*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "simd:", err)
		}
	}
}
