package wwb

// Snapshot benchmarks: the cold-start story (ROADMAP item 1). The
// baseline is BenchmarkAssembleSmall*/the full default-scale assembly
// implied by study(b); the snapshot path must load the same dataset in
// milliseconds; wwbbench's cold_start_ms is the end-to-end figure.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"wwb/internal/chrome"
	"wwb/internal/psl"
	"wwb/internal/world"
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
// (domain table, lists, coverage, curves) as a .wwb file.
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
// interned index derived. Compare against the assembly benchmarks
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
// derived index the way /v1/site does, so the number includes the
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
			b.Fatal("google missing from derived index")
		}
	}
}

// BenchmarkDecodeDeltaChain resolves the default-scale snapshot
// through 0, 1 and 2 stacked month deltas (March, then April with the
// distribution month rolled), so the cost of one chain link — decode,
// base binding, ApplyIncrement and index growth — is the difference
// between neighbouring sub-benchmarks. It is the load a fleet swap
// gate and the swap itself each pay per link.
func BenchmarkDecodeDeltaChain(b *testing.B) {
	s := study(b)
	snap := benchSnapshotBytes(b)
	dir := b.TempDir()
	paths := []string{filepath.Join(dir, "study.wwb")}
	if err := os.WriteFile(paths[0], snap, 0o644); err != nil {
		b.Fatal(err)
	}
	work, _, err := chrome.DecodeSnapshotBytes(snap)
	if err != nil {
		b.Fatal(err)
	}
	prev := snap
	for _, app := range []chrome.AppendOptions{
		{Month: world.Mar2022},
		{Month: world.Apr2022, RollDist: true},
	} {
		inc := chrome.AppendMonth(work, s.World, s.Cfg.Telemetry, app)
		var buf bytes.Buffer
		base := chrome.DeltaBase{
			Name: filepath.Base(paths[len(paths)-1]), Size: uint64(len(prev)),
			CRC: chrome.SnapshotFileCRC(prev), Provenance: benchProv,
		}
		if err := chrome.EncodeDelta(&buf, inc, base, benchProv); err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, "study+"+app.Month.String()+".wwbd")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
		paths, prev = append(paths, path), buf.Bytes()
	}
	for links, path := range paths {
		b.Run(fmt.Sprintf("links=%d", links), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, info, err := chrome.DecodeAnyPath(path); err != nil || info.Chain != links {
					b.Fatalf("decoding %s: chain %v, err %v", path, info, err)
				}
			}
		})
	}
}
