package parallel

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// withProcs runs fn with GOMAXPROCS set to procs (0 keeps the current
// setting), restoring the previous setting afterwards. The pool sizes
// itself from GOMAXPROCS, so this is how a test picks a worker count.
// No test here calls t.Parallel, so the process-wide change is safe.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

func TestWorkersResolution(t *testing.T) {
	withProcs(4, func() {
		if got := workers(100); got != 4 {
			t.Errorf("GOMAXPROCS=4: workers(100) = %d, want 4", got)
		}
		if got := workers(3); got != 3 {
			t.Errorf("GOMAXPROCS=4: workers(3) = %d, want 3 (one per item)", got)
		}
	})
	withProcs(1, func() {
		if got := workers(100); got != 1 {
			t.Errorf("GOMAXPROCS=1: workers(100) = %d, want 1", got)
		}
	})
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{0, 1, 2, 7, 64} {
		const n = 1000
		counts := make([]atomic.Int32, n)
		withProcs(procs, func() {
			ForEach(n, func(i int) {
				counts[i].Add(1)
			})
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("GOMAXPROCS=%d: index %d ran %d times", procs, i, c)
			}
		}
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ran := false
	ForEach(0, func(int) { ran = true })
	ForEach(-5, func(int) { ran = true })
	if ran {
		t.Error("fn ran for non-positive n")
	}
}

func TestMapOrderIndependentOfWorkers(t *testing.T) {
	const n = 500
	var want []int
	withProcs(1, func() { want = Map(n, func(i int) int { return i * i }) })
	for _, procs := range []int{2, 8, 0} {
		var got []int
		withProcs(procs, func() { got = Map(n, func(i int) int { return i * i }) })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("GOMAXPROCS=%d: out[%d] = %d, want %d", procs, i, got[i], want[i])
			}
		}
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		msg, ok := r.(error)
		if !ok || !strings.Contains(msg.Error(), "boom") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ForEach(100, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
}

func TestForEachCtxCompletesWithoutError(t *testing.T) {
	for _, procs := range []int{0, 1, 3, 16} {
		const n = 300
		counts := make([]atomic.Int32, n)
		var err error
		withProcs(procs, func() {
			err = ForEachCtx(context.Background(), n, func(_ context.Context, i int) error {
				counts[i].Add(1)
				return nil
			})
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: err = %v", procs, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("GOMAXPROCS=%d: index %d ran %d times", procs, i, c)
			}
		}
	}
}

func TestForEachCtxPropagatesFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, procs := range []int{1, 4} {
		var ran atomic.Int32
		var err error
		withProcs(procs, func() {
			err = ForEachCtx(context.Background(), 10000, func(_ context.Context, i int) error {
				ran.Add(1)
				if i == 5 {
					return boom
				}
				return nil
			})
		})
		if !errors.Is(err, boom) {
			t.Fatalf("GOMAXPROCS=%d: err = %v, want boom", procs, err)
		}
		if n := ran.Load(); n == 10000 {
			t.Errorf("GOMAXPROCS=%d: error did not stop the loop early (ran all %d items)", procs, n)
		}
	}
}

func TestForEachCtxErrorCancelsDerivedContext(t *testing.T) {
	boom := errors.New("boom")
	sawCancel := make(chan struct{})
	var barrier sync.WaitGroup
	barrier.Add(2)
	// The barrier guarantees both items are in flight before item 0
	// errors, so item 1 reliably witnesses the resulting cancellation.
	// It needs two workers, hence GOMAXPROCS=2.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	err := ForEachCtx(context.Background(), 2, func(ctx context.Context, i int) error {
		barrier.Done()
		barrier.Wait()
		if i == 0 {
			return boom
		}
		<-ctx.Done()
		close(sawCancel)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	select {
	case <-sawCancel:
	default:
		t.Error("sibling item never observed cancellation")
	}
}

func TestForEachCtxHonoursPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, procs := range []int{1, 4} {
		var ran atomic.Int32
		var err error
		withProcs(procs, func() {
			err = ForEachCtx(ctx, 1000, func(_ context.Context, _ int) error {
				ran.Add(1)
				return nil
			})
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("GOMAXPROCS=%d: err = %v, want context.Canceled", procs, err)
		}
		if n := ran.Load(); n == 1000 {
			t.Errorf("GOMAXPROCS=%d: cancelled loop still ran every item", procs)
		}
	}
}

func TestForEachCtxPanicBeatsError(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if msg, ok := r.(error); !ok || !strings.Contains(msg.Error(), "kaboom") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	// Two workers, two items, and a barrier that forces both items to
	// be in flight before either resolves: one panics, one errors, and
	// the panic must win regardless of which lands first.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var barrier sync.WaitGroup
	barrier.Add(2)
	_ = ForEachCtx(context.Background(), 2, func(_ context.Context, i int) error {
		barrier.Done()
		barrier.Wait()
		if i == 0 {
			panic("kaboom")
		}
		return errors.New("also failing")
	})
}

func TestMapCtxMatchesMap(t *testing.T) {
	const n = 400
	var want []int
	withProcs(1, func() { want = Map(n, func(i int) int { return i * 3 }) })
	for _, procs := range []int{1, 2, 8} {
		var (
			got []int
			err error
		)
		withProcs(procs, func() {
			got, err = MapCtx(context.Background(), n, func(_ context.Context, i int) (int, error) {
				return i * 3, nil
			})
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("GOMAXPROCS=%d: out[%d] = %d, want %d", procs, i, got[i], want[i])
			}
		}
	}
}

func TestForEachPanicStillCompletesOtherItems(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var done atomic.Int32
	func() {
		defer func() { _ = recover() }()
		ForEach(100, func(i int) {
			if i == 3 {
				panic("boom")
			}
			done.Add(1)
		})
	}()
	if got := done.Load(); got != 99 {
		t.Errorf("completed items = %d, want 99", got)
	}
}
