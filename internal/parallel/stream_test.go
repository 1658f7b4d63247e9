package parallel

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestStreamCtxOrderedDelivery: results arrive at consume in strict
// index order for every GOMAXPROCS, with nothing dropped.
func TestStreamCtxOrderedDelivery(t *testing.T) {
	const n = 500
	for _, procs := range []int{1, 2, 8} {
		var got []int
		var err error
		withProcs(procs, func() {
			err = StreamCtx(context.Background(), n,
				func(_ context.Context, i int) (int, error) { return i * i, nil },
				func(i, v int) error {
					if v != i*i {
						t.Fatalf("GOMAXPROCS=%d: consume(%d) got %d", procs, i, v)
					}
					got = append(got, i)
					return nil
				})
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if len(got) != n {
			t.Fatalf("GOMAXPROCS=%d: consumed %d of %d", procs, len(got), n)
		}
		for i, idx := range got {
			if idx != i {
				t.Fatalf("GOMAXPROCS=%d: out-of-order delivery at %d: %d", procs, i, idx)
			}
		}
	}
}

// TestStreamCtxBoundedWindow: no worker may run ahead of the consumer
// by more than the 2×workers window — the memory bound the streaming
// assembly depends on.
func TestStreamCtxBoundedWindow(t *testing.T) {
	const workers, n = 4, 400
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	var consumed atomic.Int64
	var maxLead atomic.Int64
	err := StreamCtx(context.Background(), n,
		func(_ context.Context, i int) (int, error) {
			lead := int64(i) - consumed.Load()
			for {
				cur := maxLead.Load()
				if lead <= cur || maxLead.CompareAndSwap(cur, lead) {
					break
				}
			}
			return i, nil
		},
		func(i, v int) error {
			consumed.Store(int64(i + 1))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// A produce for index i may start once i < consumed+window, so the
	// observable lead is bounded by window (plus nothing: the check
	// happens before produce runs).
	if lead := maxLead.Load(); lead > 2*workers {
		t.Fatalf("worker ran %d ahead of consumer; window is %d", lead, 2*workers)
	}
}

func TestStreamCtxProduceError(t *testing.T) {
	sentinel := errors.New("boom")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var consumedPast atomic.Bool
	err := StreamCtx(context.Background(), 100,
		func(_ context.Context, i int) (int, error) {
			if i == 17 {
				return 0, sentinel
			}
			return i, nil
		},
		func(i, v int) error {
			if i >= 17 {
				consumedPast.Store(true)
			}
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if consumedPast.Load() {
		t.Fatal("consume ran for an index at or past the failed produce")
	}
}

func TestStreamCtxConsumeError(t *testing.T) {
	sentinel := errors.New("consume failed")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	var after atomic.Bool
	err := StreamCtx(context.Background(), 50,
		func(_ context.Context, i int) (int, error) { return i, nil },
		func(i, v int) error {
			if i == 5 {
				return sentinel
			}
			if i > 5 {
				after.Store(true)
			}
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if after.Load() {
		t.Fatal("consume called again after returning an error")
	}
}

func TestStreamCtxCancellation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	errc := make(chan error, 1)
	go func() {
		errc <- StreamCtx(ctx, 10_000,
			func(ctx context.Context, i int) (int, error) {
				if started.Add(1) == 20 {
					cancel()
				}
				// Slow items keep the stream mid-flight when the cancel
				// lands.
				time.Sleep(100 * time.Microsecond)
				return i, nil
			},
			func(i, v int) error { return nil })
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("StreamCtx did not return after cancellation")
	}
}

func TestStreamCtxPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if !strings.Contains(r.(error).Error(), "worker panic on item") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	_ = StreamCtx(context.Background(), 100,
		func(_ context.Context, i int) (int, error) {
			if i == 9 {
				panic("kaboom")
			}
			return i, nil
		},
		func(i, v int) error { return nil })
}

// TestStreamCtxSequentialPath: GOMAXPROCS=1 is the plain inline loop —
// side-effect order interleaves produce and consume per index.
func TestStreamCtxSequentialPath(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var trace []string
	err := StreamCtx(context.Background(), 3,
		func(_ context.Context, i int) (string, error) {
			trace = append(trace, "p")
			return "", nil
		},
		func(i int, _ string) error {
			trace = append(trace, "c")
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(trace, ""); got != "pcpcpc" {
		t.Fatalf("sequential trace %q, want pcpcpc", got)
	}
}

func TestStreamCtxZeroItems(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	err := StreamCtx(context.Background(), 0,
		func(_ context.Context, i int) (int, error) { t.Fatal("produce called"); return 0, nil },
		func(i, v int) error { t.Fatal("consume called"); return nil })
	if err != nil {
		t.Fatal(err)
	}
}
