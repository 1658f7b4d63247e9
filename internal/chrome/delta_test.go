package chrome

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"wwb/internal/telemetry"
	"wwb/internal/world"
)

// encodeDeltaBytes serialises an increment bound to the given base
// artifact bytes.
func encodeDeltaBytes(t testing.TB, inc *Increment, baseName string, baseData []byte, baseProv SnapshotProvenance) []byte {
	t.Helper()
	var buf bytes.Buffer
	base := DeltaBase{
		Name:       baseName,
		Size:       uint64(len(baseData)),
		CRC:        SnapshotFileCRC(baseData),
		Provenance: baseProv,
	}
	if err := EncodeDelta(&buf, inc, base, testProvenance); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func writeArtifact(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDeltaChainResolvesByteIdentical is the delta acceptance bar: a
// base .wwb plus a chain of .wwbd deltas resolved by DecodeAnyPath
// must re-encode to the snapshot bytes of a full rebuild covering the
// extended window. The chain's second link rolls DistMonth forward,
// exercising the DIST section.
func TestDeltaChainResolvesByteIdentical(t *testing.T) {
	tcfg := telemetry.DefaultConfig()
	dir := t.TempDir()

	base := Assemble(testWorld, tcfg, appendBaseOpts())
	baseSnap := snapshotBytes(t, base)
	writeArtifact(t, dir, "study.wwb", baseSnap)

	// Delta 1: plain March append on a clone of the base.
	work := cloneDataset(t, base)
	incMar, err := AppendMonthCtx(context.Background(), work, testWorld, tcfg, AppendOptions{Month: world.Mar2022})
	if err != nil {
		t.Fatal(err)
	}
	deltaMar := encodeDeltaBytes(t, incMar, "study.wwb", baseSnap, testProvenance)
	marPath := writeArtifact(t, dir, "study+mar.wwbd", deltaMar)

	ds, info, err := DecodeAnyPath(marPath)
	if err != nil {
		t.Fatalf("resolving single delta: %v", err)
	}
	if info.Format != FormatWWBD || info.Chain != 1 || info.Provenance != testProvenance {
		t.Errorf("single-delta info = %+v", info)
	}
	oracleOpts := appendBaseOpts()
	oracleOpts.Months = []world.Month{world.Jan2022, world.Feb2022, world.Mar2022}
	oracle := Assemble(testWorld, tcfg, oracleOpts)
	if !bytes.Equal(snapshotBytes(t, ds), snapshotBytes(t, oracle)) {
		t.Error("base+delta snapshot bytes differ from full rebuild's")
	}

	// Delta 2 stacks on delta 1 and rolls DistMonth to April.
	incApr, err := AppendMonthCtx(context.Background(), work, testWorld, tcfg, AppendOptions{Month: world.Apr2022, RollDist: true})
	if err != nil {
		t.Fatal(err)
	}
	deltaApr := encodeDeltaBytes(t, incApr, "study+mar.wwbd", deltaMar, testProvenance)
	aprPath := writeArtifact(t, dir, "study+apr.wwbd", deltaApr)

	ds2, info2, err := DecodeAnyPath(aprPath)
	if err != nil {
		t.Fatalf("resolving two-link chain: %v", err)
	}
	if info2.Chain != 2 {
		t.Errorf("chain depth = %d, want 2", info2.Chain)
	}
	oracleOpts2 := appendBaseOpts()
	oracleOpts2.Months = []world.Month{world.Jan2022, world.Feb2022, world.Mar2022, world.Apr2022}
	oracleOpts2.DistMonth = world.Apr2022
	oracle2 := Assemble(testWorld, tcfg, oracleOpts2)
	if !bytes.Equal(snapshotBytes(t, ds2), snapshotBytes(t, oracle2)) {
		t.Error("two-link chain snapshot bytes differ from full rebuild's")
	}

	// A plain .wwb path still decodes through DecodeAnyPath.
	ds3, info3, err := DecodeAnyPath(filepath.Join(dir, "study.wwb"))
	if err != nil {
		t.Fatal(err)
	}
	if info3.Format != FormatWWB || info3.Chain != 0 {
		t.Errorf("plain artifact info = %+v", info3)
	}
	if !bytes.Equal(snapshotBytes(t, ds3), snapshotBytes(t, base)) {
		t.Error("plain artifact decode differs from original")
	}
}

// TestDeltaRoundTrip: encode → decode preserves the increment exactly.
func TestDeltaRoundTrip(t *testing.T) {
	tcfg := telemetry.DefaultConfig()
	base := Assemble(testWorld, tcfg, appendBaseOpts())
	baseSnap := snapshotBytes(t, base)
	work := cloneDataset(t, base)
	inc, err := AppendMonthCtx(context.Background(), work, testWorld, tcfg, AppendOptions{Month: world.Mar2022})
	if err != nil {
		t.Fatal(err)
	}

	raw := encodeDeltaBytes(t, inc, "study.wwb", baseSnap, testProvenance)
	d, err := DecodeDeltaBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if d.Base.Name != "study.wwb" || d.Base.Size != uint64(len(baseSnap)) || d.Base.CRC != SnapshotFileCRC(baseSnap) {
		t.Errorf("base binding = %+v", d.Base)
	}
	if d.Base.Provenance != testProvenance || d.Provenance != testProvenance {
		t.Errorf("provenance = base %+v producer %+v", d.Base.Provenance, d.Provenance)
	}
	got := d.Increment
	if got.Month != inc.Month || got.RollDist != inc.RollDist || len(got.Lists) != len(inc.Lists) || len(got.Coverage) != len(inc.Coverage) {
		t.Fatalf("decoded increment shape differs: %+v", got)
	}
	// Applying the decoded increment to a fresh base clone matches the
	// in-process append.
	clone := cloneDataset(t, base)
	if err := clone.ApplyIncrement(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, clone), snapshotBytes(t, work)) {
		t.Error("decoded increment applies differently from the original")
	}
}

func TestDeltaRejectsWrongBase(t *testing.T) {
	tcfg := telemetry.DefaultConfig()
	dir := t.TempDir()
	base := Assemble(testWorld, tcfg, appendBaseOpts())
	baseSnap := snapshotBytes(t, base)
	work := cloneDataset(t, base)
	inc, err := AppendMonthCtx(context.Background(), work, testWorld, tcfg, AppendOptions{Month: world.Mar2022})
	if err != nil {
		t.Fatal(err)
	}
	delta := encodeDeltaBytes(t, inc, "study.wwb", baseSnap, testProvenance)
	deltaPath := writeArtifact(t, dir, "study+mar.wwbd", delta)

	// Missing base.
	if _, _, err := DecodeAnyPath(deltaPath); err == nil {
		t.Error("delta with missing base resolved")
	}
	// Corrupt base: same length, flipped payload byte → CRC mismatch.
	bad := append([]byte(nil), baseSnap...)
	bad[len(bad)/2] ^= 0x01
	writeArtifact(t, dir, "study.wwb", bad)
	if _, _, err := DecodeAnyPath(deltaPath); err == nil {
		t.Error("delta resolved against corrupt base")
	}
	// Wrong provenance with correct bytes: binding pinned to another
	// lineage must reject even though size and CRC match.
	writeArtifact(t, dir, "study.wwb", baseSnap)
	otherProv := testProvenance
	otherProv.WorldSeed++
	deltaWrongProv := encodeDeltaBytes(t, inc, "study.wwb", baseSnap, otherProv)
	wrongProvPath := writeArtifact(t, dir, "study+wrongprov.wwbd", deltaWrongProv)
	if _, _, err := DecodeAnyPath(wrongProvPath); err == nil {
		t.Error("delta resolved against base with mismatched provenance")
	}
	// The intact pair still resolves.
	if _, _, err := DecodeAnyPath(deltaPath); err != nil {
		t.Errorf("intact base+delta rejected: %v", err)
	}
	// A base name that escapes the artifact directory is rejected
	// before any file access.
	deltaEscape := encodeDeltaBytes(t, inc, "../study.wwb", baseSnap, testProvenance)
	escapePath := writeArtifact(t, dir, "study+escape.wwbd", deltaEscape)
	if _, _, err := DecodeAnyPath(escapePath); err == nil {
		t.Error("delta with path-escaping base name resolved")
	}
	// A delta naming itself as base must hit the chain bound, not hang.
	// Size/CRC can't match the file that contains them, so this errors
	// on binding validation or depth — either way, an error.
	selfDelta := encodeDeltaBytes(t, inc, "self.wwbd", delta, testProvenance)
	selfPath := writeArtifact(t, dir, "self.wwbd", selfDelta)
	if _, _, err := DecodeAnyPath(selfPath); err == nil {
		t.Error("self-referential delta resolved")
	}
}

func TestDeltaRejectsCorruptionAndDecodeAny(t *testing.T) {
	tcfg := telemetry.DefaultConfig()
	base := Assemble(testWorld, tcfg, appendBaseOpts())
	baseSnap := snapshotBytes(t, base)
	work := cloneDataset(t, base)
	inc, err := AppendMonthCtx(context.Background(), work, testWorld, tcfg, AppendOptions{Month: world.Mar2022})
	if err != nil {
		t.Fatal(err)
	}
	delta := encodeDeltaBytes(t, inc, "study.wwb", baseSnap, testProvenance)

	if _, err := DecodeDeltaBytes(delta); err != nil {
		t.Fatalf("intact delta rejected: %v", err)
	}
	// Truncations at every section-ish boundary.
	for _, cut := range []int{0, 4, 11, 12, 20, len(delta) / 2, len(delta) - 1} {
		if _, err := DecodeDeltaBytes(delta[:cut]); err == nil {
			t.Errorf("truncated delta (%d bytes) accepted", cut)
		}
	}
	// Flipped payload byte → section CRC mismatch.
	flipped := append([]byte(nil), delta...)
	flipped[len(flipped)/2] ^= 0x01
	if _, err := DecodeDeltaBytes(flipped); err == nil {
		t.Error("corrupt delta accepted")
	}
	// Future version.
	future := append([]byte(nil), delta...)
	binary.LittleEndian.PutUint32(future[8:12], 99)
	if _, err := DecodeDeltaBytes(future); err == nil {
		t.Error("future-version delta accepted")
	}
	// Trailing garbage.
	if _, err := DecodeDeltaBytes(append(append([]byte(nil), delta...), 0)); err == nil {
		t.Error("delta with trailing data accepted")
	}
	// Full-snapshot magic through the delta decoder and vice versa.
	if _, err := DecodeDeltaBytes(baseSnap); err == nil {
		t.Error("full snapshot accepted by delta decoder")
	}
	// The in-memory snapshot decoder can't resolve a base: it must say
	// so descriptively rather than misparse.
	if _, _, err := DecodeSnapshotBytes(delta); err != errDeltaNeedsPath {
		t.Errorf("DecodeSnapshotBytes on delta: err = %v, want errDeltaNeedsPath", err)
	}
}

// FuzzDecodeDelta: arbitrary bytes through the delta decoder must be
// rejected with an error or produce a structurally valid increment,
// and never panic or over-allocate.
func FuzzDecodeDelta(f *testing.F) {
	tcfg := telemetry.DefaultConfig()
	base := Assemble(testWorld, tcfg, appendBaseOpts())
	baseSnap := snapshotBytes(f, base)
	work, _, err := DecodeSnapshotBytes(baseSnap)
	if err != nil {
		f.Fatal(err)
	}
	inc, err := AppendMonthCtx(context.Background(), work, testWorld, tcfg, AppendOptions{Month: world.Mar2022})
	if err != nil {
		f.Fatal(err)
	}
	delta := encodeDeltaBytes(f, inc, "study.wwb", baseSnap, testProvenance)

	f.Add(delta)
	f.Add(delta[:len(delta)/2])
	f.Add(delta[:12])
	f.Add(delta[:30])
	flipped := append([]byte(nil), delta...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	wrongMagic := append([]byte(nil), delta...)
	wrongMagic[3] = 'Z'
	f.Add(wrongMagic)
	future := append([]byte(nil), delta...)
	binary.LittleEndian.PutUint32(future[8:12], 99)
	f.Add(future)
	f.Add(deltaMagic[:])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDeltaBytes(data)
		if err != nil {
			return
		}
		// Accepted inputs carry a structurally valid increment; applying
		// it to an unrelated base must either succeed or error — the
		// validated merge is exercised for panics, not outcomes.
		clone, _, err := DecodeSnapshotBytes(baseSnap)
		if err != nil {
			t.Fatal(err)
		}
		_ = clone.ApplyIncrement(d.Increment)
	})
}
