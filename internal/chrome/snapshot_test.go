package chrome

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"wwb/internal/telemetry"
)

var testProvenance = SnapshotProvenance{Tool: "wwbgen", WorldSeed: 42, Scale: "small"}

// snapshotBytes encodes ds as a snapshot with a fixed provenance: the
// byte-level fingerprint every equivalence test in this package
// compares. It carries each value's raw float bits and the interned
// index, so equal bytes mean equal datasets down to the last bit.
func snapshotBytes(t testing.TB, ds *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.EncodeSnapshot(&buf, testProvenance); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundTrip is the acceptance bar: a dataset decoded from
// a .wwb snapshot must be byte-identical to the in-memory one — same
// interned index, same memoized per-cell views, same re-encoding.
func TestSnapshotRoundTrip(t *testing.T) {
	snap := snapshotBytes(t, testDataset)
	ds, info, err := DecodeSnapshotBytes(snap)
	if err != nil {
		t.Fatal(err)
	}
	if info.Format != FormatWWB || info.Version != SnapshotVersion {
		t.Errorf("info = %+v", info)
	}
	if info.Provenance != testProvenance {
		t.Errorf("provenance = %+v, want %+v", info.Provenance, testProvenance)
	}

	// The restored index must match what buildIndex would compute from
	// scratch: same key universe, same per-cell views.
	restored := ds.Index()
	fresh := buildIndex(ds)
	if !reflect.DeepEqual(restored.keys, fresh.keys) {
		t.Fatalf("restored key universe differs: %d keys vs %d", len(restored.keys), len(fresh.keys))
	}
	for _, k := range sortedKeys(ds.lists) {
		got, want := restored.cellByKey(k), fresh.cellByKey(k)
		if !reflect.DeepEqual(got.ids, want.ids) || !reflect.DeepEqual(got.firstPos, want.firstPos) {
			t.Fatalf("cell %q: restored view differs from rebuilt view", k)
		}
	}

	// Re-encoding the decoded dataset must reproduce the snapshot.
	if !bytes.Equal(snap, snapshotBytes(t, ds)) {
		t.Error("snapshot re-encoding differs from original snapshot")
	}
}

// TestSnapshotBytesIdenticalAcrossWorkers: assembly is byte-identical
// for any worker count, and so must be the snapshot serialisation.
func TestSnapshotBytesIdenticalAcrossWorkers(t *testing.T) {
	opts := testDataset.Opts
	var snaps [][]byte
	for _, workers := range []int{1, 8} {
		o := opts
		o.Workers = workers
		snaps = append(snaps, snapshotBytes(t, Assemble(testWorld, telemetry.DefaultConfig(), o)))
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Error("snapshots differ between Workers=1 and Workers=8")
	}
	ref := snapshotBytes(t, testDataset)
	if !bytes.Equal(snaps[0], ref) {
		t.Error("worker-pinned snapshot differs from default-worker snapshot")
	}
}

// TestDecodeAnyAutodetects: DecodeAnyPath must recognise a .wwb by
// its magic and refuse anything else — a JSON document included —
// with a descriptive error rather than misparse it.
func TestDecodeAnyAutodetects(t *testing.T) {
	dir := t.TempDir()
	ds, info, err := DecodeAnyPath(writeArtifact(t, dir, "study.wwb", snapshotBytes(t, testDataset)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Format != FormatWWB || info.Chain != 0 || info.Provenance != testProvenance {
		t.Errorf("snapshot info = %+v", info)
	}
	if ds.NumLists() != testDataset.NumLists() {
		t.Errorf("decoded %d lists, want %d", ds.NumLists(), testDataset.NumLists())
	}

	_, _, err = DecodeAnyPath(writeArtifact(t, dir, "study.json", []byte(`{"lists":{}}`)))
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("JSON document: err = %v, want a bad-magic error", err)
	}
}

// TestSnapshotRejectsTruncation truncates the snapshot at a spread of
// byte offsets, including every boundary in the first bytes; each must
// produce a descriptive error, never a panic or a partial dataset.
func TestSnapshotRejectsTruncation(t *testing.T) {
	snap := snapshotBytes(t, testDataset)
	offsets := []int{}
	for i := 0; i < 64 && i < len(snap); i++ {
		offsets = append(offsets, i)
	}
	step := len(snap)/97 + 1
	for i := 64; i < len(snap); i += step {
		offsets = append(offsets, i)
	}
	offsets = append(offsets, len(snap)-1)
	for _, off := range offsets {
		if _, _, err := DecodeSnapshotBytes(snap[:off]); err == nil {
			t.Errorf("truncation at %d/%d accepted", off, len(snap))
		}
	}
	// The untruncated file still decodes.
	if _, _, err := DecodeSnapshotBytes(snap); err != nil {
		t.Fatalf("full snapshot rejected: %v", err)
	}
}

// TestSnapshotRejectsCorruption flips a bit at a spread of offsets —
// header fields, checksum bytes, and payload bytes alike; every flip
// must be rejected.
func TestSnapshotRejectsCorruption(t *testing.T) {
	snap := snapshotBytes(t, testDataset)
	offsets := []int{
		0, 3, 7, // magic
		8, 11, // version
		12, 15, // first section tag
		16, 23, // first section length
		24, 27, // first section checksum
	}
	step := len(snap)/53 + 1
	for i := 28; i < len(snap); i += step {
		offsets = append(offsets, i)
	}
	for _, off := range offsets {
		mut := append([]byte(nil), snap...)
		mut[off] ^= 0x40
		if _, _, err := DecodeSnapshotBytes(mut); err == nil {
			t.Errorf("bit flip at offset %d accepted", off)
		}
	}
}

func TestSnapshotRejectsWrongMagicAndVersion(t *testing.T) {
	snap := snapshotBytes(t, testDataset)

	wrongMagic := append([]byte(nil), snap...)
	wrongMagic[0] = 'X'
	if _, _, err := DecodeSnapshotBytes(wrongMagic); err == nil {
		t.Error("wrong magic accepted")
	}

	future := append([]byte(nil), snap...)
	binary.LittleEndian.PutUint32(future[8:12], SnapshotVersion+1)
	if _, _, err := DecodeSnapshotBytes(future); err == nil {
		t.Error("future version accepted")
	}
}

// TestSnapshotRejectsTrailingData: bytes after the final section mean
// the file was not produced by EncodeSnapshot.
func TestSnapshotRejectsTrailingData(t *testing.T) {
	snap := append(snapshotBytes(t, testDataset), 0xFF)
	if _, _, err := DecodeSnapshotBytes(snap); err == nil {
		t.Error("trailing data accepted")
	}
}

// TestSnapshotBoundedAllocation: a header declaring an absurd section
// length must be rejected against the real input size, not attempt a
// matching allocation.
func TestSnapshotBoundedAllocation(t *testing.T) {
	snap := snapshotBytes(t, testDataset)
	mut := append([]byte(nil), snap...)
	// First section header starts at 12: tag[4] at 12, length at 16.
	binary.LittleEndian.PutUint64(mut[16:24], 1<<50)
	_, _, err := DecodeSnapshotBytes(mut)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("absurd section length: err = %v, want a truncation error", err)
	}
}

// FuzzDecodeSnapshot feeds arbitrary bytes through the snapshot
// decoder: they must be rejected with an error or produce a dataset
// whose query surface is safe, and never panic or allocate past the
// data actually present.
func FuzzDecodeSnapshot(f *testing.F) {
	snap := snapshotBytes(f, testDataset)
	f.Add(snap)
	f.Add(snap[:len(snap)/2])
	f.Add(snap[:12])
	f.Add(snap[:30])
	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	wrongMagic := append([]byte(nil), snap...)
	wrongMagic[3] = 'Z'
	f.Add(wrongMagic)
	future := append([]byte(nil), snap...)
	binary.LittleEndian.PutUint32(future[8:12], 99)
	f.Add(future)
	f.Add(snapshotMagic[:])
	f.Add(deltaMagic[:])
	f.Add([]byte{})
	f.Add([]byte(`{"lists":{}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if ds, _, err := DecodeSnapshotBytes(data); err == nil {
			exerciseDataset(ds)
		}
	})
}
