package wwb

// End-to-end assembly benchmarks for the parallel pipeline: the same
// small universe assembled under different GOMAXPROCS, which sizes
// every worker pool. Output is byte-identical across all of them (see
// internal/chrome's TestAssembleWorkersByteIdentical); only the wall
// clock moves.
//
//	go test -bench=BenchmarkAssembleSmall -benchtime=3x

import (
	"runtime"
	"sync"
	"testing"

	"wwb/internal/chrome"
	"wwb/internal/core"
	"wwb/internal/telemetry"
	"wwb/internal/world"
)

var (
	assembleWorldOnce sync.Once
	assembleWorld     *world.World
)

// smallWorld lazily generates the shared small universe the assembly
// benchmarks sample from.
func smallWorld() *world.World {
	assembleWorldOnce.Do(func() {
		assembleWorld = world.Generate(world.SmallConfig())
	})
	return assembleWorld
}

func benchAssembleSmall(b *testing.B, procs int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	w := smallWorld()
	opts := chrome.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = chrome.Assemble(w, telemetry.DefaultConfig(), opts)
	}
}

func BenchmarkAssembleSmallWorkers1(b *testing.B) { benchAssembleSmall(b, 1) }
func BenchmarkAssembleSmallWorkers2(b *testing.B) { benchAssembleSmall(b, 2) }
func BenchmarkAssembleSmallWorkers4(b *testing.B) { benchAssembleSmall(b, 4) }

func BenchmarkAssembleSmallWorkersMax(b *testing.B) { benchAssembleSmall(b, 0) }

// BenchmarkFullStudySmall measures the whole pipeline — world
// generation, parallel assembly, categorisation workflow — the cost a
// server pays on every boot.
func BenchmarkFullStudySmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = core.New(core.SmallConfig())
	}
}

// BenchmarkFullStudySmallSequential is the GOMAXPROCS=1 baseline for
// BenchmarkFullStudySmall.
func BenchmarkFullStudySmallSequential(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < b.N; i++ {
		_ = core.New(core.SmallConfig())
	}
}
