package core

import (
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"wwb/internal/chrome"
	"wwb/internal/world"
)

// snapshotBytes encodes ds as a snapshot with a fixed provenance: the
// byte-level fingerprint this package's determinism checks compare.
func snapshotBytes(t *testing.T, ds *chrome.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.EncodeSnapshot(&buf, chrome.SnapshotProvenance{Tool: "test"}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStudyWorkerCountInvariance pins the determinism contract of the
// Workers knob end to end: a parallel study must produce a dataset
// that encodes to the same bytes as the sequential one, and identical
// analysis results on top of it.
func TestStudyWorkerCountInvariance(t *testing.T) {
	build := func(workers int) *Study {
		cfg := SmallConfig().FebOnly()
		cfg.Workers = workers
		return New(cfg)
	}
	seq := build(1)
	par := build(8)

	if !bytes.Equal(snapshotBytes(t, seq.Dataset), snapshotBytes(t, par.Dataset)) {
		t.Fatal("Workers=8 dataset encodes differently from Workers=1")
	}

	if !reflect.DeepEqual(
		seq.Concentration(world.Windows, world.PageLoads),
		par.Concentration(world.Windows, world.PageLoads),
	) {
		t.Error("Concentration differs across worker counts")
	}
	if !reflect.DeepEqual(
		seq.CountrySimilarity(world.Windows, world.PageLoads),
		par.CountrySimilarity(world.Windows, world.PageLoads),
	) {
		t.Error("CountrySimilarity differs across worker counts")
	}
}

// TestMemoSingleFlight verifies that concurrent requests for the same
// uncached key run the compute exactly once and all observe its value
// (the pre-fix memo computed outside the lock, so N concurrent
// requests recomputed N times).
func TestMemoSingleFlight(t *testing.T) {
	s := &Study{cache: map[string]*memoEntry{}}
	var computes atomic.Int32
	var wg sync.WaitGroup
	const callers = 32
	results := make([]int, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = memo(s, "key", func() int {
				computes.Add(1)
				return 42
			})
		}(i)
	}
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("compute ran %d times, want 1", got)
	}
	for i, r := range results {
		if r != 42 {
			t.Fatalf("caller %d saw %d", i, r)
		}
	}
}

// TestMemoNestedKeys guards the dependency pattern the study relies
// on: a memoized analysis may call another memoized analysis inside
// its compute without deadlocking on the study lock.
func TestMemoNestedKeys(t *testing.T) {
	s := &Study{cache: map[string]*memoEntry{}}
	got := memo(s, "outer", func() int {
		return memo(s, "inner", func() int { return 7 }) + 1
	})
	if got != 8 {
		t.Errorf("nested memo = %d, want 8", got)
	}
}
