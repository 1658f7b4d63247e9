package parallel

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// StreamCtx runs produce(i) for every i in [0, n) on at most
// GOMAXPROCS goroutines and hands each result to consume on the
// calling goroutine, in strict index order. Unlike MapCtx it never
// holds all n results at once: at most 2×workers produced-but-unconsumed
// results exist at any moment, and a worker that runs ahead of the
// consumer by more than that window blocks before producing. That
// bound is what turns an O(n)-results fan-in into an O(workers) one —
// the streaming-assembly memory model depends on it.
//
// Because consume runs on one goroutine in index order, the overall
// effect (including every side effect of consume, such as
// order-sensitive float accumulation) is identical to the sequential
//
//	for i := range n { consume(i, produce(i)) }
//
// loop for every GOMAXPROCS. GOMAXPROCS=1 executes exactly that loop
// inline.
//
// The first error from produce or consume cancels the derived context,
// stops new work, and is returned after in-flight produce calls
// drain; a consume error additionally guarantees consume is never
// called again. Panics follow the ForEach contract: first panic wins
// and is re-raised on the caller with the worker stack.
func StreamCtx[T any](ctx context.Context, n int,
	produce func(ctx context.Context, i int) (T, error),
	consume func(i int, v T) error) error {
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
			v, err := produce(cctx, i)
			if err != nil {
				return err
			}
			if err := consume(i, v); err != nil {
				return err
			}
			mTasksCompleted.Inc()
		}
		return nil
	}

	window := 2 * w
	var (
		mu     sync.Mutex
		cond   = sync.NewCond(&mu)
		ring   = make([]T, window)
		ready  = make([]bool, window)
		base   int // next index to consume; indices < base are done
		failed bool

		next      atomic.Int64
		wg        sync.WaitGroup
		errOnce   sync.Once
		firstErr  error
		panicOnce sync.Once
		panicked  error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		cancel()
		mu.Lock()
		failed = true
		mu.Unlock()
		cond.Broadcast()
	}

	// External cancellation must also wake goroutines parked on the
	// cond (they cannot select on a channel while waiting).
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-cctx.Done():
			mu.Lock()
			failed = true
			mu.Unlock()
			cond.Broadcast()
		case <-watchDone:
		}
	}()

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
				// Respect the window before producing: the result for
				// index i may only exist once the consumer is within
				// window of it, bounding in-flight memory.
				mu.Lock()
				for i >= base+window && !failed {
					cond.Wait()
				}
				stop := failed
				mu.Unlock()
				if stop {
					return
				}
				mTasksStarted.Inc()
				var (
					v   T
					err error
				)
				func() {
					defer func() {
						if r := recover(); r != nil {
							stack := debug.Stack()
							panicOnce.Do(func() {
								panicked = fmt.Errorf("parallel: worker panic on item %d: %v\n%s", i, r, stack)
							})
							fail(cctx.Err())
						}
					}()
					v, err = produce(cctx, i)
				}()
				if err != nil {
					fail(err)
					return
				}
				mu.Lock()
				if failed {
					mu.Unlock()
					return
				}
				ring[i%window] = v
				ready[i%window] = true
				mu.Unlock()
				cond.Broadcast()
			}
		}()
	}

	consumed := 0
	var zero T
	for idx := 0; idx < n; idx++ {
		mu.Lock()
		for !ready[idx%window] && !failed {
			cond.Wait()
		}
		if failed {
			mu.Unlock()
			break
		}
		v := ring[idx%window]
		ring[idx%window] = zero // release the slot's reference promptly
		ready[idx%window] = false
		base = idx + 1
		mu.Unlock()
		cond.Broadcast()
		if err := consume(idx, v); err != nil {
			fail(err)
			break
		}
		mTasksCompleted.Inc()
		consumed++
	}
	if consumed < n {
		// Unblock any workers still parked on the window.
		mu.Lock()
		failed = true
		mu.Unlock()
		cond.Broadcast()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	if firstErr != nil {
		return firstErr
	}
	if consumed < n {
		return ctx.Err()
	}
	return nil
}
