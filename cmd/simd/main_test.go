package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr bool
	}{
		{nil, false},
		{[]string{"-verify-fraction", "0.5", "-job-workers", "2"}, false},
		{[]string{"-verify-fraction", "1"}, false},
		{[]string{"-verify-fraction", "1.5"}, true},
		{[]string{"-verify-fraction", "-0.1"}, true},
		{[]string{"-no-such-flag"}, true},
		{[]string{"-job-workers", "many"}, true},
	} {
		var stderr bytes.Buffer
		o, err := parseFlags(tc.args, &stderr)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseFlags(%q) error = %v, want error %v", tc.args, err, tc.wantErr)
		}
		if tc.wantErr && stderr.Len() == 0 {
			t.Errorf("parseFlags(%q) rejected the flags without a message", tc.args)
		}
		if !tc.wantErr && o.addr != ":8723" {
			t.Errorf("parseFlags(%q) addr = %q, want the default", tc.args, o.addr)
		}
	}
	if _, err := parseFlags([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: error = %v, want flag.ErrHelp", err)
	}
}

func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(":0", http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 {
		t.Error("no ReadHeaderTimeout: a client that never finishes its headers holds a connection forever")
	}
	if hs.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v would cut off event streams of long jobs", hs.WriteTimeout)
	}
}

// A shutdown with an event stream open on a running job ends the stream
// with the job's cancelled event and drains the HTTP server without
// running into its timeout.
func TestShutdownEndsEventStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	srv := serve.New(serve.Config{SimWorkers: 1})
	h := srv.Handler()
	var once sync.Once
	streamOpen := make(chan struct{})
	hs := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			once.Do(func() { close(streamOpen) })
		}
		h.ServeHTTP(w, r)
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	cl := serve.NewClient("http://" + ln.Addr().String())
	ctx := context.Background()
	st, err := cl.Submit(ctx, serve.JobSpec{
		Workloads:   []string{"mcf", "lbm", "libquantum", "milc"},
		Modes:       []string{"OoO", "PRE"},
		MeasureUops: 300_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, cl, st.ID)
	var last serve.Event
	streamed := make(chan error, 1)
	go func() {
		streamed <- cl.Events(ctx, st.ID, func(ev serve.Event) error {
			last = ev
			return nil
		})
	}()
	<-streamOpen

	// Draining HTTP first would wait on the open stream until the job
	// ended by itself (a done event) or the timeout ran out (an error).
	if err := shutdown(srv, hs, 30*time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-streamed; err != nil {
		t.Fatalf("event stream: %v", err)
	}
	if last.Type != serve.StateCancelled || !strings.Contains(last.Error, "cancel") {
		t.Errorf("last event = %+v, want the cancelled terminal event", last)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

// waitRunning blocks until job id has left the queue.
//
//sim:wallclock test start-up deadline polling only
func waitRunning(t *testing.T, cl *serve.Client, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := cl.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == serve.StateRunning {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
