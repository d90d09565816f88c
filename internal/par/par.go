// Package par provides the deterministic worker-pool primitive behind the
// concurrent engine (DESIGN.md §4): a bounded parallel for-loop whose
// results are reproducible for any worker count.
//
// The determinism contract is structural, not accidental: For runs
// independent leaf computations addressed by index, and callers perform any
// floating-point reduction serially in index order after For returns.
// Because no leaf reads another leaf's output and the reduction order is
// fixed, the results are bit-identical whether the loop ran on one
// goroutine or sixteen.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/coyote-te/coyote/internal/obs"
)

// Pool activity metrics (obs.Default, DESIGN.md §10). Counters cost two
// atomic adds per For call — not per leaf — and the queue-wait histogram
// is only touched on the parallel path (one observation per worker per
// loop: the delay between scheduling the loop and the worker pulling its
// first chunk, i.e. goroutine startup + run-queue pressure). None of this
// reads back into the computation, so the determinism contract is
// untouched.
var (
	mLoops = obs.Default.NewCounter("coyote_par_loops_total",
		"Parallel for-loops executed (including inline single-worker runs).")
	mTasks = obs.Default.NewCounter("coyote_par_tasks_total",
		"Loop leaves (work items) executed across all loops.")
	mQueueWait = obs.Default.NewHistogram("coyote_par_queue_wait_seconds",
		"Delay between loop start and each worker grabbing its first chunk.",
		obs.ExpBuckets(1e-6, 4, 10)) // 1µs .. ~0.26s
)

// Resolve maps a Workers configuration value to an effective worker count:
// positive values pass through, anything else means "one worker per
// available CPU" (GOMAXPROCS).
func Resolve(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// effective bounds a resolved worker count by what can actually run in
// parallel: never more workers than leaves, and never more than physical
// CPUs. The second cap is what keeps "workers=4" proportional on a 1-CPU
// machine (or under an inflated GOMAXPROCS): extra goroutines there only
// time-slice the same core and pay spawn/switch overhead for nothing.
// Scheduling-only — the determinism contract makes results identical at
// every worker count, so capping never changes output.
func effective(workers, n int) int {
	if workers > n {
		workers = n
	}
	if c := runtime.NumCPU(); workers > c {
		workers = c
	}
	return workers
}

// For invokes fn(i) exactly once for every i in [0, n), using at most
// effective(Resolve(workers), n) concurrent workers (never more than
// runtime.NumCPU()). Leaves are handed out in contiguous chunks to amortize
// scheduling overhead on fine-grained loops, and the calling goroutine
// participates as one of the workers, so a w-way loop spawns only w−1
// goroutines and a 1-way (or 1-CPU) loop spawns none — fn then runs inline
// on the calling goroutine in index order with zero allocations. That
// proportional-overhead guarantee is what keeps "workers>1" configurations
// from losing to serial runs on small inputs or small machines.
//
// fn must treat distinct indices as independent: write results only into
// the slot for i, never read a sibling's slot, and share no scratch between
// leaves that may run at once. Under that contract the observable results
// do not depend on the worker count.
func For(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	mLoops.Inc()
	mTasks.Add(uint64(n))
	workers = effective(Resolve(workers), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// Chunked work-stealing: each worker grabs a span of indices at a
	// time, so loops with tiny leaf bodies (the optimizer's per-iteration
	// passes) don't pay one atomic op per leaf.
	chunk := n / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	spawned := time.Now()
	var next atomic.Int64
	run := func(observeWait bool) {
		first := true
		for {
			start := int(next.Add(int64(chunk))) - chunk
			if start >= n {
				return
			}
			if first {
				if observeWait {
					mQueueWait.ObserveSince(spawned)
				}
				first = false
			}
			end := start + chunk
			if end > n {
				end = n
			}
			for i := start; i < end; i++ {
				fn(i)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			run(true)
		}()
	}
	run(false) // the caller is worker 0; its queue wait is always ~0
	wg.Wait()
}

// ForErr is For for fallible leaves: fn(i) runs exactly once for every i
// in [0, n) under the same determinism contract, every leaf runs to
// completion even after a failure, and ForErr returns the error of the
// lowest failing index (so the reported error does not depend on worker
// count or scheduling).
func ForErr(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	For(workers, n, func(i int) {
		errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
