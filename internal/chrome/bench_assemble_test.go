package chrome

import (
	"runtime"
	"testing"

	"wwb/internal/telemetry"
	"wwb/internal/world"
)

// Assembly benchmarks: streaming vs the legacy materialise-and-sort
// reference, run with -benchmem so the allocs/op delta from bounded
// selection and pooled scratch is visible in the bench log.
//
//	go test ./internal/chrome -run=NONE -bench=Assemble -benchmem

func benchAssemble(b *testing.B, assemble assembler, procs int) {
	b.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	opts := DefaultOptions()
	opts.Months = []world.Month{world.Feb2022}
	tcfg := telemetry.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ds := assemble(testWorld, tcfg, opts); len(ds.Countries) == 0 {
			b.Fatal("empty dataset")
		}
	}
}

func BenchmarkAssembleStreamSmall(b *testing.B) { benchAssemble(b, Assemble, 1) }
func BenchmarkAssembleLegacySmall(b *testing.B) { benchAssemble(b, assembleLegacy, 1) }
