package chrome

// Delta dataset snapshots (.wwbd). A delta persists one month append
// (an Increment) as a standalone, versioned, checksummed artifact a
// fifth the work of a full snapshot rebuild: the monthly roll-forward
// workflow is `wwbgen -append MONTH -base study.wwb -o study+m.wwbd`,
// and any consumer resolves the chain with DecodeAnyPath. The layout
// mirrors the full snapshot (DESIGN.md §12):
//
//	magic[8]  version:u32
//	five sections in fixed order: DMET DOMS LSTS COVR DIST
//	  each: tag[4]  length:u64  crc:u32  payload[length]
//	EOF (trailing bytes are an error)
//
// DMET binds the delta to its base three ways — by file size and
// whole-file CRC-32C (bit-rot and wrong-file protection) and by the
// base's embedded provenance (a freshly regenerated world at the same
// seed/scale also qualifies, which the fleet's swap validation relies
// on) — then records the appended month, the roll-dist flag, the
// resulting Options, the country list, and the producer's own
// provenance. DOMS/LSTS/COVR/DIST reuse the full snapshot's section
// encoders verbatim over the increment's cells, so the identical data
// has the identical bytes in both formats.
//
// Deltas chain: a delta's base may itself be a delta, resolved
// recursively (bounded depth) relative to each artifact's directory.
// Application is ApplyIncrement, the same validated merge the
// in-process append uses, so a resolved chain is byte-identical to a
// full rebuild covering the extended window.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"wwb/internal/world"
)

// DeltaVersion is the delta format version this build reads and
// writes.
const DeltaVersion = 1

// maxDeltaChain bounds base+delta recursion: a cycle (a delta naming
// itself or an ancestor as base) must error, not hang.
const maxDeltaChain = 16

// deltaMagic opens every .wwbd file; same text-mangling tripwires as
// the full snapshot's magic.
var deltaMagic = [8]byte{0x89, 'W', 'W', 'D', '\r', '\n', 0x1a, '\n'}

var errDeltaNeedsPath = errors.New("chrome: input is a delta snapshot (.wwbd), which requires resolving its base file: decode it with DecodeAnyPath")

// IsDeltaSnapshot reports whether a file prefix carries the .wwbd
// magic.
func IsDeltaSnapshot(prefix []byte) bool {
	return len(prefix) >= len(deltaMagic) && bytes.Equal(prefix[:len(deltaMagic)], deltaMagic[:])
}

// SnapshotFileCRC is the whole-file checksum DMET binds a base by:
// CRC-32C over every byte of the artifact.
func SnapshotFileCRC(data []byte) uint32 {
	return crc32.Checksum(data, castagnoli)
}

// DeltaBase identifies the artifact a delta applies to.
type DeltaBase struct {
	// Name is the base's file name (no directory): bases resolve
	// relative to the delta's own location, so a base+delta pair can
	// move between machines together.
	Name string
	// Size and CRC pin the exact base file bytes.
	Size uint64
	CRC  uint32
	// Provenance is the base's embedded provenance, the binding the
	// fleet checks a proposed delta against its running epoch with.
	Provenance SnapshotProvenance
}

// DeltaSnapshot is a decoded .wwbd: the base binding plus the
// increment to apply.
type DeltaSnapshot struct {
	Version    uint32
	Base       DeltaBase
	Increment  *Increment
	Provenance SnapshotProvenance // producer of the delta itself
}

// EncodeDelta writes an increment as a delta snapshot bound to the
// given base.
func EncodeDelta(w io.Writer, inc *Increment, base DeltaBase, prov SnapshotProvenance) error {
	e := &snapEncoder{w: bufio.NewWriterSize(w, 1<<20)}
	if _, err := e.w.Write(deltaMagic[:]); err != nil {
		return fmt.Errorf("chrome: delta: writing magic: %w", err)
	}
	var ver [4]byte
	binary.LittleEndian.PutUint32(ver[:], DeltaVersion)
	if _, err := e.w.Write(ver[:]); err != nil {
		return fmt.Errorf("chrome: delta: writing version: %w", err)
	}

	// DMET: base binding, appended month, resulting options, producer.
	e.str(base.Name)
	e.u64(base.Size)
	e.u32(base.CRC)
	e.str(base.Provenance.Tool)
	e.u64(base.Provenance.WorldSeed)
	e.str(base.Provenance.Scale)
	e.varint(int64(inc.Month))
	if inc.RollDist {
		e.sec.WriteByte(1)
	} else {
		e.sec.WriteByte(0)
	}
	e.varint(inc.Opts.PrivacyThreshold)
	e.varint(int64(inc.Opts.TopN))
	e.varint(int64(inc.Opts.DistMonth))
	e.u64(inc.Opts.Seed)
	e.monthSlice(inc.Opts.Months)
	e.strSlice(inc.Countries)
	e.str(prov.Tool)
	e.u64(prov.WorldSeed)
	e.str(prov.Scale)
	if err := e.flushSection("DMET"); err != nil {
		return fmt.Errorf("chrome: delta: writing DMET: %w", err)
	}

	if err := encodeDataSections(e, sortedKeys(inc.Lists), inc.Lists, inc.Coverage, inc.Dist); err != nil {
		return err
	}
	return e.w.Flush()
}

// DecodeDeltaBytes decodes a delta snapshot held fully in memory.
// Decoding is defensive like the full snapshot path — lengths and
// counts checked against the bytes present, per-section checksums, no
// trailing garbage — and the embedded increment passes the structural
// half of validation here; the base-relative half runs when the
// increment is applied.
func DecodeDeltaBytes(data []byte) (*DeltaSnapshot, error) {
	w, err := openArtifact(data, "delta", ".wwbd delta snapshot", deltaMagic, DeltaVersion)
	if err != nil {
		return nil, err
	}
	d := &DeltaSnapshot{Version: DeltaVersion, Increment: &Increment{}}
	sd := &snapDecoded{}
	if err := w.decode(
		section{"DMET", d.decodeMeta},
		section{"DOMS", sd.decodeDoms},
		section{"LSTS", sd.decodeLists},
		section{"COVR", sd.decodeCoverage},
		section{"DIST", sd.decodeDist},
	); err != nil {
		return nil, err
	}
	if err := w.end(); err != nil {
		return nil, err
	}

	d.Increment.Lists = sd.lists
	d.Increment.Coverage = sd.coverage
	d.Increment.Dist = sd.dist
	if len(d.Increment.Dist) == 0 {
		// The DIST section is always present; an empty one means a
		// non-roll delta, which ApplyIncrement requires to carry nil.
		d.Increment.Dist = nil
	}
	// Structural validation now (descending lists, finite values,
	// coverage range, normalised curves); base-relative validation —
	// countries, month coverage, options consistency — happens in
	// ApplyIncrement against the actual base.
	if err := validateDataset([]world.Month{d.Increment.Month}, sd.lists, sd.coverage, d.Increment.Dist); err != nil {
		return nil, fmt.Errorf("chrome: delta: invalid increment: %w", err)
	}
	return d, nil
}

// decodeMeta decodes the DMET section.
func (d *DeltaSnapshot) decodeMeta(c *snapCursor) error {
	var err error
	if d.Base.Name, err = c.str(); err != nil {
		return err
	}
	if d.Base.Size, err = c.u64(); err != nil {
		return err
	}
	if d.Base.CRC, err = c.u32(); err != nil {
		return err
	}
	if d.Base.Provenance.Tool, err = c.str(); err != nil {
		return err
	}
	if d.Base.Provenance.WorldSeed, err = c.u64(); err != nil {
		return err
	}
	if d.Base.Provenance.Scale, err = c.str(); err != nil {
		return err
	}
	month, err := c.varint()
	if err != nil {
		return err
	}
	if !world.ValidMonth(int(month)) {
		return c.errf("appended month %d out of range", month)
	}
	d.Increment.Month = world.Month(month)
	roll, err := c.take(1)
	if err != nil {
		return err
	}
	switch roll[0] {
	case 0:
		d.Increment.RollDist = false
	case 1:
		d.Increment.RollDist = true
	default:
		return c.errf("bad roll-dist flag %#x", roll[0])
	}
	if d.Increment.Opts.PrivacyThreshold, err = c.varint(); err != nil {
		return err
	}
	topN, err := c.varint()
	if err != nil {
		return err
	}
	d.Increment.Opts.TopN = int(topN)
	distMonth, err := c.varint()
	if err != nil {
		return err
	}
	if !world.ValidMonth(int(distMonth)) {
		return c.errf("dist month %d out of range", distMonth)
	}
	d.Increment.Opts.DistMonth = world.Month(distMonth)
	if d.Increment.Opts.Seed, err = c.u64(); err != nil {
		return err
	}
	if d.Increment.Opts.Months, err = c.monthSlice(); err != nil {
		return err
	}
	if d.Increment.Countries, err = c.strSlice(); err != nil {
		return err
	}
	if d.Provenance.Tool, err = c.str(); err != nil {
		return err
	}
	if d.Provenance.WorldSeed, err = c.u64(); err != nil {
		return err
	}
	d.Provenance.Scale, err = c.str()
	return err
}

// ValidateBase checks a candidate base file's bytes and decoded info
// against the delta's DMET binding.
func (d *DeltaSnapshot) ValidateBase(baseData []byte, baseInfo *SnapshotInfo) error {
	if uint64(len(baseData)) != d.Base.Size {
		return fmt.Errorf("chrome: delta: base is %d bytes, binding wants %d — wrong base file", len(baseData), d.Base.Size)
	}
	if crc := SnapshotFileCRC(baseData); crc != d.Base.CRC {
		return fmt.Errorf("chrome: delta: base file checksum %08x, binding wants %08x — wrong or corrupt base file", crc, d.Base.CRC)
	}
	if baseInfo.Provenance != d.Base.Provenance {
		return fmt.Errorf("chrome: delta: base provenance %+v, binding wants %+v — wrong base lineage", baseInfo.Provenance, d.Base.Provenance)
	}
	return nil
}

// DecodeAnyPath decodes a dataset artifact by path, resolving delta
// chains: a .wwbd's base (named relative to the delta's directory) is
// decoded recursively — itself possibly a delta — validated against
// the DMET binding, and the increment applied. A plain .wwb decodes
// exactly as DecodeSnapshotBytes would. The returned SnapshotInfo
// carries the chain depth and, for deltas, the final delta's producer
// provenance.
func DecodeAnyPath(path string) (*Dataset, *SnapshotInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("chrome: reading dataset %s: %w", path, err)
	}
	return decodeArtifact(path, data, 0)
}

// decodeArtifact decodes the bytes read from path, depth links down a
// delta chain. Each link's file is read once: its bytes both decode
// and bind it to the delta above.
func decodeArtifact(path string, data []byte, depth int) (*Dataset, *SnapshotInfo, error) {
	if !IsDeltaSnapshot(data) {
		return DecodeSnapshotBytes(data)
	}
	if depth > maxDeltaChain {
		return nil, nil, fmt.Errorf("chrome: delta: base chain deeper than %d at %q — cyclic or runaway delta chain", maxDeltaChain, path)
	}
	d, err := DecodeDeltaBytes(data)
	if err != nil {
		return nil, nil, fmt.Errorf("chrome: delta %s: %w", path, err)
	}
	if filepath.Base(d.Base.Name) != d.Base.Name || d.Base.Name == "" || d.Base.Name == "." || d.Base.Name == ".." {
		return nil, nil, fmt.Errorf("chrome: delta %s: base name %q is not a bare file name", path, d.Base.Name)
	}
	basePath := filepath.Join(filepath.Dir(path), d.Base.Name)
	baseData, err := os.ReadFile(basePath)
	if err != nil {
		return nil, nil, fmt.Errorf("chrome: delta %s: reading base: %w", path, err)
	}
	ds, baseInfo, err := decodeArtifact(basePath, baseData, depth+1)
	if err != nil {
		return nil, nil, err
	}
	if err := d.ValidateBase(baseData, baseInfo); err != nil {
		return nil, nil, fmt.Errorf("chrome: delta %s: %w", path, err)
	}
	if err := ds.ApplyIncrement(d.Increment); err != nil {
		return nil, nil, fmt.Errorf("chrome: delta %s: %w", path, err)
	}
	return ds, &SnapshotInfo{
		Format:     FormatWWBD,
		Version:    d.Version,
		Provenance: d.Provenance,
		Chain:      baseInfo.Chain + 1,
	}, nil
}
