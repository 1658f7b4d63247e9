// Package parallel provides a bounded worker pool with deterministic
// ordered fan-out/fan-in, in the spirit of errgroup. Work items are
// indexed, workers pull indices from a shared atomic counter (so
// uneven items balance automatically), and results land in
// index-order slots — the output is byte-for-byte independent of
// scheduling. The pool is sized by runtime.GOMAXPROCS and nothing
// else: parallelism describes the machine, not the data, so no caller
// passes a worker count. GOMAXPROCS=1 runs every pool inline on the
// caller's goroutine, preserving an exactly-sequential execution path.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"wwb/internal/metrics"
)

// Process-wide pool metrics, exposed on wwbserve's /metrics. The
// per-item counters are one atomic add each — noise next to any real
// fn — and nothing in the pool reads them back, so scheduling and
// results are untouched.
var (
	mTasksStarted = metrics.Default.Counter(
		"parallel_tasks_started_total",
		"Work items handed to pool workers.")
	mTasksCompleted = metrics.Default.Counter(
		"parallel_tasks_completed_total",
		"Work items that ran to completion (no panic, no error).")
	mCallSeconds = metrics.Default.Histogram(
		"parallel_call_seconds",
		"Wall-clock duration of one ForEach/Map fan-out call.",
		metrics.DefBuckets)
)

// workers sizes a pool for n items: one worker per GOMAXPROCS, never
// more workers than items.
func workers(n int) int {
	return min(runtime.GOMAXPROCS(0), n)
}

// ForEach runs fn(i) for every i in [0, n) on at most GOMAXPROCS
// goroutines. It returns after every call has finished. fn must
// confine its writes to locations disjoint per index (e.g. out[i]);
// under that contract the overall effect is identical to the
// sequential loop regardless of GOMAXPROCS or scheduling.
//
// If any fn panics, ForEach waits for the remaining work to finish
// and then re-panics on the calling goroutine with the first
// recovered value and its worker stack trace.
func ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	start := time.Now()
	defer func() { mCallSeconds.Observe(time.Since(start).Seconds()) }()
	w := workers(n)
	if w == 1 {
		for i := 0; i < n; i++ {
			mTasksStarted.Inc()
			fn(i)
			mTasksCompleted.Inc()
		}
		return
	}

	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  error
	)
	for range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				mTasksStarted.Inc()
				func() {
					defer func() {
						if r := recover(); r != nil {
							stack := debug.Stack()
							panicOnce.Do(func() {
								panicked = fmt.Errorf("parallel: worker panic on item %d: %v\n%s", i, r, stack)
							})
							return
						}
						mTasksCompleted.Inc()
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Map runs fn over every index in [0, n) on the ForEach pool and
// returns the results in index order. The output slice is identical
// for any GOMAXPROCS.
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, func(i int) {
		out[i] = fn(i)
	})
	return out
}

// ForEachCtx is the cancellable, error-propagating ForEach. Workers
// stop pulling new indices as soon as the context is done or any fn
// returns a non-nil error; in-flight calls are allowed to finish, so
// cancellation never abandons a half-executed item. The derived
// context passed to fn is cancelled on the first error, letting slow
// items bail out cooperatively.
//
// The returned error is the first one recorded (cancellation makes
// later items moot), or the context's error when cancellation stopped
// the loop before every item ran. A nil return guarantees fn ran to
// completion for every index. Panics still take the ForEach path:
// first panic wins, remaining in-flight work finishes, and the panic
// is re-raised on the caller with the worker stack — a panic beats any
// error.
func ForEachCtx(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	start := time.Now()
	defer func() { mCallSeconds.Observe(time.Since(start).Seconds()) }()
	w := workers(n)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	if w == 1 {
		for i := 0; i < n; i++ {
			if err := cctx.Err(); err != nil {
				return err
			}
			mTasksStarted.Inc()
			if err := fn(cctx, i); err != nil {
				return err
			}
			mTasksCompleted.Inc()
		}
		return nil
	}

	var (
		next      atomic.Int64
		completed atomic.Int64
		wg        sync.WaitGroup
		errOnce   sync.Once
		firstErr  error
		panicOnce sync.Once
		panicked  error
	)
	for range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if cctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				mTasksStarted.Inc()
				func() {
					defer func() {
						if r := recover(); r != nil {
							stack := debug.Stack()
							panicOnce.Do(func() {
								panicked = fmt.Errorf("parallel: worker panic on item %d: %v\n%s", i, r, stack)
								cancel()
							})
						}
					}()
					if err := fn(cctx, i); err != nil {
						errOnce.Do(func() {
							firstErr = err
							cancel()
						})
						return
					}
					completed.Add(1)
					mTasksCompleted.Inc()
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	if firstErr != nil {
		return firstErr
	}
	if int(completed.Load()) < n {
		// Cancellation stopped the loop before every item ran.
		return ctx.Err()
	}
	return nil
}

// MapCtx is the cancellable, error-propagating Map: results land in
// index-order slots and the output is identical for any GOMAXPROCS.
// On error or cancellation the partially filled slice is returned
// alongside the error; callers must treat it as incomplete.
func MapCtx[T any](ctx context.Context, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachCtx(ctx, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}
