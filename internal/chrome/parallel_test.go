package chrome

import (
	"bytes"
	"testing"

	"wwb/internal/telemetry"
	"wwb/internal/world"
)

// TestAssembleWorkersByteIdentical is the determinism guarantee behind
// the Workers knob: a parallel assembly must encode to exactly the
// bytes the sequential path produces, including the floating-point
// distribution accumulators whose summation order must not drift.
func TestAssembleWorkersByteIdentical(t *testing.T) {
	opts := testDataset.Opts
	encode := func(workers int) []byte {
		o := opts
		o.Workers = workers
		return snapshotBytes(t, Assemble(testWorld, telemetry.DefaultConfig(), o))
	}
	seq := encode(1)
	for _, workers := range []int{4, 8} {
		if par := encode(workers); !bytes.Equal(seq, par) {
			t.Fatalf("Workers=%d assembly encodes differently from sequential (%d vs %d bytes)",
				workers, len(par), len(seq))
		}
	}
}

// TestDistMonthAutoIncluded guards the silent-empty-distribution bug:
// a Months restriction that excludes DistMonth used to yield length-0
// curves with no error.
func TestDistMonthAutoIncluded(t *testing.T) {
	ds := Assemble(testWorld, telemetry.DefaultConfig(), Options{
		PrivacyThreshold: 50,
		TopN:             10000,
		DistMonth:        world.Feb2022,
		Seed:             1,
		Months:           []world.Month{world.Sep2021},
	})
	found := false
	for _, m := range ds.Months {
		if m == world.Feb2022 {
			found = true
		}
	}
	if !found {
		t.Fatal("DistMonth not auto-included in assembled months")
	}
	if ds.Dist(world.Windows, world.PageLoads).Len() == 0 {
		t.Fatal("distribution curve empty despite auto-included DistMonth")
	}
	if len(ds.List("US", world.Windows, world.PageLoads, world.Feb2022)) == 0 {
		t.Error("no rank list for the auto-included DistMonth")
	}
	if len(ds.List("US", world.Windows, world.PageLoads, world.Sep2021)) == 0 {
		t.Error("requested month lost while auto-including DistMonth")
	}
}
