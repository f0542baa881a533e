// Package pool provides the worker pool shared by the experiment
// harness (internal/expt) and the cluster epoch loop (internal/cluster):
// n independent jobs fanned out across GOMAXPROCS goroutines with
// deterministic result collection.
//
// Determinism contract: job i always receives index i, results are
// handed to collect in index order after all jobs finish, and jobs must
// not share mutable state. Under that contract the observable outcome
// is independent of goroutine scheduling, which is what lets the
// experiment tables and the cluster vote tallies be byte-identical
// across runs.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers, when positive, overrides the worker count (normally
// GOMAXPROCS). The CLIs expose it as -workers; by the determinism
// contract above, any setting produces identical observable results —
// the flag only trades wall-clock time for parallelism.
var Workers int

// ForEach runs n independent jobs across worker goroutines and then
// calls collect once per job, in index order, on the caller's
// goroutine. run must be safe to call concurrently for distinct
// indices; collect (which may be nil) is never called concurrently.
//
// The caller runs jobs itself beside workers−1 helper goroutines, and
// every runner claims the next index from one counter until the
// indices run out, so no job waits to be handed over and a fan-out of
// jobs shorter than a goroutine's start costs little more than running
// them in a loop.
func ForEach(n int, run func(i int) interface{}, collect func(i int, result interface{})) {
	var results []interface{}
	if collect != nil {
		results = make([]interface{}, n)
	}
	var next atomic.Int64
	runner := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			r := run(i)
			if results != nil {
				results[i] = r
			}
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if Workers > 0 {
		workers = Workers
	}
	var wg sync.WaitGroup
	for range min(workers, n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runner()
		}()
	}
	runner()
	wg.Wait()
	if collect != nil {
		for i, r := range results {
			collect(i, r)
		}
	}
}

// Run is ForEach for jobs without results: it executes fn for every
// index in [0, n) across the worker pool and returns when all are done.
func Run(n int, fn func(i int)) {
	ForEach(n, func(i int) interface{} {
		fn(i)
		return nil
	}, nil)
}
