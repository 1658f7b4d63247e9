package chrome

import (
	"bytes"
	"runtime"
	"testing"

	"wwb/internal/telemetry"
	"wwb/internal/world"
)

// assembler is either assembly pipeline: Assemble (streaming) or the
// assembleLegacy reference oracle.
type assembler func(*world.World, telemetry.Config, Options) *Dataset

// encodeWith assembles a dataset over w with the given pipeline under
// GOMAXPROCS=procs and returns its snapshot bytes — the byte-level
// fingerprint the equivalence tests compare.
func encodeWith(t *testing.T, procs int, assemble assembler, w *world.World, opts Options) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return snapshotBytes(t, assemble(w, telemetry.DefaultConfig(), opts))
}

// TestStreamingMatchesLegacyByteIdentical is the streaming pipeline's
// correctness bar: for every GOMAXPROCS, the bounded-memory path must
// encode to exactly the bytes of the materialise-and-sort reference
// path — rank lists, coverage fractions, and the float distribution
// curves included.
func TestStreamingMatchesLegacyByteIdentical(t *testing.T) {
	opts := testDataset.Opts
	variants := []struct {
		name     string
		assemble assembler
		procs    int
	}{
		{"legacy/w1", assembleLegacy, 1},
		{"legacy/w8", assembleLegacy, 8},
		{"stream/w1", Assemble, 1},
		{"stream/w8", Assemble, 8},
	}
	var want []byte
	for _, v := range variants {
		got := encodeWith(t, v.procs, v.assemble, testWorld, opts)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s encodes differently from %s (%d vs %d bytes)",
				v.name, variants[0].name, len(got), len(want))
		}
	}
}

// TestStreamingGoldenDefaultScale repeats the byte-identical check on
// the default-scale universe (all study months, DistMonth included) at
// GOMAXPROCS 1 vs 8, and against the reference pipeline. The assembly
// is the expensive part of the suite, so it is skipped under -short.
func TestStreamingGoldenDefaultScale(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale assembly is slow; run without -short")
	}
	w := world.Generate(world.DefaultConfig())
	opts := DefaultOptions()
	opts.Months = []world.Month{world.Feb2022}

	seq := encodeWith(t, 1, Assemble, w, opts)
	if par := encodeWith(t, 8, Assemble, w, opts); !bytes.Equal(seq, par) {
		t.Fatalf("default scale: GOMAXPROCS=8 streaming assembly differs from sequential (%d vs %d bytes)", len(par), len(seq))
	}
	if leg := encodeWith(t, 0, assembleLegacy, w, opts); !bytes.Equal(seq, leg) {
		t.Fatalf("default scale: legacy assembly differs from streaming (%d vs %d bytes)", len(leg), len(seq))
	}
}

// TestStreamingTruncatesLikeTopN pins the bounded selector's depth
// semantics: with a tiny TopN the streamed lists must equal the
// legacy sort-then-truncate lists cell for cell.
func TestStreamingTruncatesLikeTopN(t *testing.T) {
	opts := testDataset.Opts
	opts.TopN = 25

	stream := Assemble(testWorld, telemetry.DefaultConfig(), opts)
	legacy := assembleLegacy(testWorld, telemetry.DefaultConfig(), opts)

	for _, c := range stream.Countries {
		for _, p := range world.Platforms {
			for _, m := range world.Metrics {
				sl := stream.List(c, p, m, world.Feb2022)
				ll := legacy.List(c, p, m, world.Feb2022)
				if len(sl) != len(ll) {
					t.Fatalf("%s/%s/%s: %d vs %d entries", c, p, m, len(sl), len(ll))
				}
				if len(sl) > 25 {
					t.Fatalf("%s/%s/%s: list deeper than TopN (%d)", c, p, m, len(sl))
				}
				for i := range sl {
					if sl[i] != ll[i] {
						t.Fatalf("%s/%s/%s rank %d: %+v vs %+v", c, p, m, i+1, sl[i], ll[i])
					}
				}
				if stream.Coverage(c, p, m, world.Feb2022) != legacy.Coverage(c, p, m, world.Feb2022) {
					t.Fatalf("%s/%s/%s: coverage differs", c, p, m)
				}
			}
		}
	}
}

// TestAssemblePeakHeapGaugeSet: the observability contract — after an
// assembly the peak-heap gauge holds a plausible (non-zero) reading.
func TestAssemblePeakHeapGaugeSet(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	_ = Assemble(testWorld, telemetry.DefaultConfig(), testDataset.Opts)
	if got := AssemblePeakHeapBytes(); got <= 0 {
		t.Fatalf("peak heap gauge = %d, want > 0", got)
	}
}
