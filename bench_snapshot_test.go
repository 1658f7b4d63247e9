package wwb

// Snapshot benchmarks: the cold-start story (ROADMAP item 1). The
// baseline is BenchmarkAssembleSmall*/the full default-scale assembly
// implied by study(b); the snapshot path must load the same dataset in
// milliseconds. BENCH_3.json records the measured trajectory.

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"wwb/internal/chrome"
	"wwb/internal/psl"
)

var benchProv = chrome.SnapshotProvenance{Tool: "bench", WorldSeed: 1, Scale: "default"}

// benchSnapshotBytes serialises the shared default-scale dataset once.
func benchSnapshotBytes(b *testing.B) []byte {
	b.Helper()
	var buf bytes.Buffer
	if err := study(b).Dataset.EncodeSnapshot(&buf, benchProv); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkSnapshotEncode measures writing the default-scale dataset
// (lists + curves + interned index + per-cell views) as a .wwb file.
func BenchmarkSnapshotEncode(b *testing.B) {
	ds := study(b).Dataset
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ds.EncodeSnapshot(io.Discard, benchProv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotLoad is the serving cold start: read a .wwb
// snapshot file and decode it into a fully queryable dataset with its
// interned index restored. Compare against the assembly benchmarks
// (the no-artifact path).
func BenchmarkSnapshotLoad(b *testing.B) {
	snap := benchSnapshotBytes(b)
	path := filepath.Join(b.TempDir(), "study.wwb")
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(snap)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := chrome.DecodeAnyPath(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotLoadBytes is the wwbserve -data path on platforms
// with mmap: the file is already fully in memory and sections decode
// zero-copy.
func BenchmarkSnapshotLoadBytes(b *testing.B) {
	snap := benchSnapshotBytes(b)
	b.SetBytes(int64(len(snap)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := chrome.DecodeSnapshotBytes(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotLoadPlusFirstQuery decodes and then touches the
// restored index the way /v1/site does, so the number includes the
// first query's index lookup.
func BenchmarkSnapshotLoadPlusFirstQuery(b *testing.B) {
	snap := benchSnapshotBytes(b)
	b.SetBytes(int64(len(snap)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, _, err := chrome.DecodeSnapshotBytes(snap)
		if err != nil {
			b.Fatal(err)
		}
		ix := ds.Index()
		if _, ok := ix.ID(psl.Default.SiteKey("google.us")); !ok {
			b.Fatal("google missing from restored index")
		}
	}
}
