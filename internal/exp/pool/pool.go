// Package pool provides the worker pool that fans independent simulation
// jobs out across the host's cores. It backs the experiment orchestrator
// in internal/exp, the one way the repository runs a matrix.
//
// Jobs are identified by index; the pool guarantees each index runs
// exactly once. Callers own the output: a job writes only to its own
// pre-allocated slot, so no synchronization beyond the pool's completion
// barrier is needed, and results are independent of scheduling order.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the pool width used when the caller passes 0:
// one worker per schedulable CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Effective returns the pool width Run actually uses for n jobs and the
// given requested worker count — the single source of truth callers use
// when recording pool width (e.g. experiment metadata).
func Effective(n, workers int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	return workers
}

// Run executes job(0) .. job(n-1) on up to workers goroutines and returns
// when all have finished. workers <= 0 selects DefaultWorkers(); the pool
// never starts more goroutines than jobs. With one worker the jobs run on
// the calling goroutine in index order, which keeps single-threaded use
// allocation- and scheduler-free.
//
// Indices are handed out through an atomic cursor (work stealing), so an
// expensive job never serializes the queue behind it. Run itself imposes
// no ordering on observable results: jobs must write to disjoint slots.
func Run(n, workers int, job func(i int)) {
	if n <= 0 {
		return
	}
	workers = Effective(n, workers)
	if workers == 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := cursor.Add(1) - 1
				if i >= int64(n) {
					return
				}
				job(int(i))
			}
		}()
	}
	wg.Wait()
}
