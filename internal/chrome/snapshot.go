package chrome

// Binary dataset snapshots (.wwb). The snapshot persists everything a
// serving process needs — the assembled dataset, its interned KeyIndex,
// and every per-cell view — so `wwbserve -data study.wwb`
// answers its first query without re-assembling or re-interning. It
// is the only lossless dataset format; .wwbd deltas (delta.go) extend
// it a month at a time. The layout (DESIGN.md §7):
//
//	magic[8]  version:u32
//	six sections in fixed order: META DOMS LSTS COVR DIST INDX
//	  each: tag[4]  length:u64  crc:u32  payload[length]
//	EOF (trailing bytes are an error)
//
// All integers are little-endian; varints are unsigned/zig-zag LEB128
// (encoding/binary Uvarint/Varint). Strings are uvarint length + UTF-8
// bytes. Slices whose nil-ness is observable carry a leading presence
// byte, so a decoded dataset re-encodes to the same bytes. Rank-list
// entries and index arrays are fixed-width (u32/f64) rather than
// varint so a decoder can locate every cell's byte span in O(1) and
// decode cells in parallel. Checksums are CRC-32C (Castagnoli) over each section
// payload.
//
// Decoding runs over the whole file held in memory and is defensive
// end to end: every declared length — each section length against the
// bytes left in the file, each element count against the bytes left in
// its section — is checked against the real input size before anything
// is sliced or allocated, so a corrupt header declaring an absurd
// length cannot OOM the process. The decoded structure then passes
// validateDataset plus index-specific invariants: a corrupt or
// truncated file yields a descriptive error, never a dataset that
// panics under queries.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"wwb/internal/parallel"
	"wwb/internal/world"
)

// SnapshotVersion is the format version this build reads and writes.
const SnapshotVersion = 1

// Dataset artifact formats, as reported in SnapshotInfo.
const (
	FormatWWB  = "wwb"
	FormatWWBD = "wwbd"
)

// snapshotMagic opens every .wwb file. Like PNG's signature it embeds
// \r\n and \x1a so text-mode mangling or accidental truncation at the
// first line is caught immediately.
var snapshotMagic = [8]byte{0x89, 'W', 'W', 'B', '\r', '\n', 0x1a, '\n'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Presence bytes for slices that distinguish nil from empty.
const (
	presNil  = 0
	presSome = 1
)

// SnapshotProvenance records how the snapshot's dataset was produced,
// so an operator can tell which artifact a replica is serving. It is
// carried verbatim in the META section; the assembly Options travel
// alongside it as part of the dataset itself.
type SnapshotProvenance struct {
	// Tool is the producing command (e.g. "wwbgen").
	Tool string
	// WorldSeed is the universe-generation seed (distinct from
	// Options.Seed, which drives telemetry sampling).
	WorldSeed uint64
	// Scale is the universe scale the world was generated at.
	Scale string
}

// SnapshotInfo describes a decoded dataset artifact.
type SnapshotInfo struct {
	// Format is FormatWWB, or FormatWWBD for a dataset resolved
	// through a base+delta chain.
	Format string
	// Version is the artifact's format version.
	Version uint32
	// Provenance is the embedded provenance. For a resolved delta
	// chain it is the final delta's producer provenance.
	Provenance SnapshotProvenance
	// Chain counts delta links resolved to produce the dataset: 0 for
	// a plain artifact, n for a base plus n stacked deltas.
	Chain int
}

// ---------------------------------------------------------------------------
// Encoding

// snapEncoder accumulates one section at a time in memory (so its
// length and checksum can prefix the payload) and streams completed
// sections to the underlying writer.
type snapEncoder struct {
	w   *bufio.Writer
	sec bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

func (e *snapEncoder) uvarint(v uint64) {
	n := binary.PutUvarint(e.tmp[:], v)
	e.sec.Write(e.tmp[:n])
}

func (e *snapEncoder) varint(v int64) {
	n := binary.PutVarint(e.tmp[:], v)
	e.sec.Write(e.tmp[:n])
}

func (e *snapEncoder) u32(v uint32) {
	binary.LittleEndian.PutUint32(e.tmp[:4], v)
	e.sec.Write(e.tmp[:4])
}

func (e *snapEncoder) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.tmp[:8], v)
	e.sec.Write(e.tmp[:8])
}

func (e *snapEncoder) f64(v float64) { e.u64(math.Float64bits(v)) }

// reserve returns an empty slice over at least n bytes of the
// section's spare capacity. Appending fixed-width records to it and
// passing it to e.sec.Write writes them in place, without a call per
// record.
func (e *snapEncoder) reserve(n int) []byte {
	e.sec.Grow(n)
	return e.sec.AvailableBuffer()
}

func (e *snapEncoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.sec.WriteString(s)
}

func (e *snapEncoder) strSlice(ss []string) {
	if ss == nil {
		e.sec.WriteByte(presNil)
		return
	}
	e.sec.WriteByte(presSome)
	e.uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

func (e *snapEncoder) monthSlice(ms []world.Month) {
	if ms == nil {
		e.sec.WriteByte(presNil)
		return
	}
	e.sec.WriteByte(presSome)
	e.uvarint(uint64(len(ms)))
	for _, m := range ms {
		e.varint(int64(m))
	}
}

func (e *snapEncoder) f64Slice(vs []float64) {
	if vs == nil {
		e.sec.WriteByte(presNil)
		return
	}
	e.sec.WriteByte(presSome)
	e.uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.f64(v)
	}
}

// flushSection writes the completed section (header + payload) and
// resets the buffer for the next one.
func (e *snapEncoder) flushSection(tag string) error {
	payload := e.sec.Bytes()
	var hdr [16]byte
	copy(hdr[:4], tag)
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(payload, castagnoli))
	if _, err := e.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := e.w.Write(payload); err != nil {
		return err
	}
	e.sec.Reset()
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// EncodeSnapshot writes the dataset as a versioned, checksummed binary
// snapshot: the rank lists, coverage, and distribution curves plus the
// interned KeyIndex and its per-cell views (the index is built here if
// it is not already), so a decoding process never re-interns. Output
// is deterministic: all maps are serialised in sorted key order, so
// byte-identical datasets produce byte-identical snapshots regardless
// of assembly worker count.
func (d *Dataset) EncodeSnapshot(w io.Writer, prov SnapshotProvenance) error {
	e := &snapEncoder{w: bufio.NewWriterSize(w, 1<<20)}
	if _, err := e.w.Write(snapshotMagic[:]); err != nil {
		return fmt.Errorf("chrome: snapshot: writing magic: %w", err)
	}
	var ver [4]byte
	binary.LittleEndian.PutUint32(ver[:], SnapshotVersion)
	if _, err := e.w.Write(ver[:]); err != nil {
		return fmt.Errorf("chrome: snapshot: writing version: %w", err)
	}

	listKeys := sortedKeys(d.lists)

	// META: dimensions, assembly options, provenance.
	e.strSlice(d.Countries)
	e.monthSlice(d.Months)
	e.varint(d.Opts.PrivacyThreshold)
	e.varint(int64(d.Opts.TopN))
	e.varint(int64(d.Opts.DistMonth))
	e.u64(d.Opts.Seed)
	e.monthSlice(d.Opts.Months)
	e.str(prov.Tool)
	e.u64(prov.WorldSeed)
	e.str(prov.Scale)
	if err := e.flushSection("META"); err != nil {
		return fmt.Errorf("chrome: snapshot: writing META: %w", err)
	}

	if err := encodeDataSections(e, listKeys, d.lists, d.coverage, d.dist); err != nil {
		return err
	}

	// INDX: the interned key universe plus the index's view of every
	// rank-list cell, so a decoded dataset serves /v1/site point
	// lookups and the comparison kernels without a single PSL parse.
	ix := d.Index()
	e.uvarint(uint64(len(ix.keys)))
	for _, k := range ix.keys {
		e.str(k)
	}
	size := 0
	for _, k := range listKeys {
		size += 2*binary.MaxVarintLen64 + len(k) + 8*len(ix.cellByKey(k).ids)
	}
	e.sec.Grow(size) // one allocation for the whole section
	e.uvarint(uint64(len(listKeys)))
	for _, k := range listKeys {
		c := ix.cellByKey(k)
		e.str(k)
		e.uvarint(uint64(len(c.ids)))
		b := e.reserve(8 * len(c.ids))
		for _, id := range c.ids {
			b = binary.LittleEndian.AppendUint32(b, uint32(id))
		}
		for _, fp := range c.firstPos {
			b = binary.LittleEndian.AppendUint32(b, uint32(fp))
		}
		e.sec.Write(b)
	}
	if err := e.flushSection("INDX"); err != nil {
		return fmt.Errorf("chrome: snapshot: writing INDX: %w", err)
	}
	return e.w.Flush()
}

// encodeDataSections writes the DOMS/LSTS/COVR/DIST quartet for the
// given cell maps — shared by full snapshots (the whole dataset) and
// delta snapshots (one month's increment), so both formats carry the
// identical byte layout for the identical data.
func encodeDataSections(e *snapEncoder, listKeys []string, lists map[string]RankList, coverage map[string]float64, dist map[string]*DistCurve) error {
	// DOMS: the deduplicated domain table, sorted. Rank-list entries
	// reference domains by index, so each distinct domain string is
	// stored (and later allocated) exactly once. Domains are interned
	// in first-seen order, then renumbered in sorted order: sorted[r]
	// is the first-seen index of the domain at table position r, and
	// pos inverts it.
	doms, refs := internDomains(listKeys, lists)
	sorted := make([]int32, len(doms))
	for i := range sorted {
		sorted[i] = int32(i)
	}
	slices.SortFunc(sorted, func(a, b int32) int { return strings.Compare(doms[a], doms[b]) })
	pos := make([]uint32, len(doms))
	for r, di := range sorted {
		pos[di] = uint32(r)
	}
	e.uvarint(uint64(len(doms)))
	for _, di := range sorted {
		e.str(doms[di])
	}
	if err := e.flushSection("DOMS"); err != nil {
		return fmt.Errorf("chrome: snapshot: writing DOMS: %w", err)
	}

	// LSTS: every rank list, keys sorted. Entries are fixed 12-byte
	// records (u32 domain index + f64 value) so a decoder can skip a
	// whole cell in O(1) and fan cell decoding out across CPUs.
	size := 0
	for _, k := range listKeys {
		size += 2*binary.MaxVarintLen64 + 1 + len(k) + listEntrySize*len(lists[k])
	}
	e.sec.Grow(size) // one allocation for the whole section
	e.uvarint(uint64(len(listKeys)))
	for _, k := range listKeys {
		e.str(k)
		list := lists[k]
		if list == nil {
			e.sec.WriteByte(presNil)
			continue
		}
		e.sec.WriteByte(presSome)
		e.uvarint(uint64(len(list)))
		b := e.reserve(listEntrySize * len(list))
		for j, en := range list {
			b = binary.LittleEndian.AppendUint32(b, pos[refs[j]])
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(en.Value))
		}
		e.sec.Write(b)
		refs = refs[len(list):]
	}
	if err := e.flushSection("LSTS"); err != nil {
		return fmt.Errorf("chrome: snapshot: writing LSTS: %w", err)
	}

	// COVR: per-cell coverage shares, keys sorted.
	covKeys := sortedKeys(coverage)
	e.uvarint(uint64(len(covKeys)))
	for _, k := range covKeys {
		e.str(k)
		e.f64(coverage[k])
	}
	if err := e.flushSection("COVR"); err != nil {
		return fmt.Errorf("chrome: snapshot: writing COVR: %w", err)
	}

	// DIST: the global distribution curves, keys sorted.
	distKeys := sortedKeys(dist)
	e.uvarint(uint64(len(distKeys)))
	for _, k := range distKeys {
		e.str(k)
		curve := dist[k]
		if curve == nil {
			e.sec.WriteByte(presNil)
			continue
		}
		e.sec.WriteByte(presSome)
		e.f64Slice(curve.Shares)
	}
	if err := e.flushSection("DIST"); err != nil {
		return fmt.Errorf("chrome: snapshot: writing DIST: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Decoding

// snapCursor decodes one section payload in place. Every read is
// bounds-checked against the bytes remaining, so declared counts can
// never drive allocations past what the file actually contains.
type snapCursor struct {
	tag string
	b   []byte
	off int
}

func (c *snapCursor) errf(format string, args ...any) error {
	return fmt.Errorf("chrome: snapshot section %s: %s", c.tag, fmt.Sprintf(format, args...))
}

func (c *snapCursor) rem() int { return len(c.b) - c.off }

func (c *snapCursor) take(n int) ([]byte, error) {
	if n < 0 || n > c.rem() {
		return nil, c.errf("truncated: need %d bytes at offset %d, %d left", n, c.off, c.rem())
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b, nil
}

func (c *snapCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, c.errf("bad varint at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *snapCursor) varint() (int64, error) {
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		return 0, c.errf("bad varint at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *snapCursor) u32() (uint32, error) {
	b, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (c *snapCursor) u64() (uint64, error) {
	b, err := c.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (c *snapCursor) f64() (float64, error) {
	v, err := c.u64()
	return math.Float64frombits(v), err
}

func (c *snapCursor) str() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(c.rem()) {
		return "", c.errf("string length %d exceeds %d remaining bytes", n, c.rem())
	}
	b, err := c.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// count reads an element count and validates it against the section's
// remaining capacity given a minimum encoded size per element — the
// guard that keeps `make` honest against corrupt counts.
func (c *snapCursor) count(minItemSize int) (int, error) {
	v, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(c.rem()/minItemSize) {
		return 0, c.errf("count %d at offset %d exceeds section capacity (%d bytes left, ≥%d per item)",
			v, c.off, c.rem(), minItemSize)
	}
	return int(v), nil
}

func (c *snapCursor) pres() (bool, error) {
	b, err := c.take(1)
	if err != nil {
		return false, err
	}
	switch b[0] {
	case presNil:
		return false, nil
	case presSome:
		return true, nil
	default:
		return false, c.errf("bad presence byte %#x at offset %d", b[0], c.off-1)
	}
}

func (c *snapCursor) strSlice() ([]string, error) {
	ok, err := c.pres()
	if err != nil || !ok {
		return nil, err
	}
	n, err := c.count(1)
	if err != nil {
		return nil, err
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = c.str(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (c *snapCursor) monthSlice() ([]world.Month, error) {
	ok, err := c.pres()
	if err != nil || !ok {
		return nil, err
	}
	n, err := c.count(1)
	if err != nil {
		return nil, err
	}
	out := make([]world.Month, n)
	for i := range out {
		v, err := c.varint()
		if err != nil {
			return nil, err
		}
		out[i] = world.Month(v)
	}
	return out, nil
}

func (c *snapCursor) f64Slice() ([]float64, error) {
	ok, err := c.pres()
	if err != nil || !ok {
		return nil, err
	}
	n, err := c.count(8)
	if err != nil {
		return nil, err
	}
	raw, err := c.take(n * 8)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return out, nil
}

// sectionWalker walks the fixed-order sections of an artifact held
// fully in memory (a read or mmapped file) — snapshots and deltas
// alike. Each section's tag is checked, its declared length against
// the bytes actually left, and its payload against the CRC, before the
// payload is sliced out without copying.
type sectionWalker struct {
	kind string // "snapshot" or "delta": prefixes every error
	data []byte
	off  int
}

// openArtifact checks the 12-byte file header — magic, then version —
// and returns a walker positioned at the first section.
func openArtifact(data []byte, kind, what string, magic [8]byte, version uint32) (*sectionWalker, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("chrome: %s: reading file header: file too short", kind)
	}
	if !bytes.Equal(data[:8], magic[:]) {
		return nil, fmt.Errorf("chrome: %s: bad magic %x (not a %s)", kind, data[:8], what)
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != version {
		return nil, fmt.Errorf("chrome: %s: unsupported version %d (this build reads version %d)", kind, v, version)
	}
	return &sectionWalker{kind: kind, data: data, off: 12}, nil
}

// next returns the next section, which must carry tag.
func (w *sectionWalker) next(tag string) (*snapCursor, error) {
	left := len(w.data) - w.off
	if left < 16 {
		return nil, fmt.Errorf("chrome: %s: reading %s section header: file truncated", w.kind, tag)
	}
	hdr := w.data[w.off : w.off+16]
	if got := string(hdr[:4]); got != tag {
		return nil, fmt.Errorf("chrome: %s: unexpected section %q (want %s) — corrupt or reordered file", w.kind, got, tag)
	}
	length := binary.LittleEndian.Uint64(hdr[4:12])
	if length > uint64(left-16) {
		return nil, fmt.Errorf("chrome: %s: section %s truncated: declared %d bytes, file ends after %d",
			w.kind, tag, length, left-16)
	}
	payload := w.data[w.off+16 : w.off+16+int(length)]
	if want, got := binary.LittleEndian.Uint32(hdr[12:16]), crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("chrome: %s: section %s checksum mismatch (file %08x, computed %08x) — corrupt file",
			w.kind, tag, want, got)
	}
	w.off += 16 + int(length)
	return &snapCursor{tag: tag, b: payload}, nil
}

// section pairs a section tag with the decoder for its payload.
type section struct {
	tag string
	dec func(*snapCursor) error
}

// decode decodes the next sections in order, stopping at the first
// error.
func (w *sectionWalker) decode(secs ...section) error {
	for _, s := range secs {
		c, err := w.next(s.tag)
		if err != nil {
			return err
		}
		if err := w.decodeAll(c, s.dec); err != nil {
			return err
		}
	}
	return nil
}

// decodeAll runs dec over a section, which it must consume whole. It
// reads only w.kind, so it may run concurrently with w.next.
func (w *sectionWalker) decodeAll(c *snapCursor, dec func(*snapCursor) error) error {
	if err := dec(c); err != nil {
		return err
	}
	if c.rem() != 0 {
		return fmt.Errorf("chrome: %s: section %s has %d undecoded trailing bytes — corrupt file", w.kind, c.tag, c.rem())
	}
	return nil
}

// end checks that the last section ended the file.
func (w *sectionWalker) end() error {
	if w.off != len(w.data) {
		return fmt.Errorf("chrome: %s: trailing data after final section", w.kind)
	}
	return nil
}

// snapDecoded accumulates section contents until the Dataset can be
// assembled and validated as a whole.
type snapDecoded struct {
	countries []string
	months    []world.Month
	opts      Options
	prov      SnapshotProvenance
	doms      []string
	lists     map[string]RankList
	coverage  map[string]float64
	dist      map[string]*DistCurve
	keys      []string
	cells     map[string]*cellKeys
}

func (sd *snapDecoded) decodeMeta(c *snapCursor) error {
	var err error
	if sd.countries, err = c.strSlice(); err != nil {
		return err
	}
	if sd.months, err = c.monthSlice(); err != nil {
		return err
	}
	if sd.opts.PrivacyThreshold, err = c.varint(); err != nil {
		return err
	}
	topN, err := c.varint()
	if err != nil {
		return err
	}
	sd.opts.TopN = int(topN)
	distMonth, err := c.varint()
	if err != nil {
		return err
	}
	if !world.ValidMonth(int(distMonth)) {
		return c.errf("dist month %d out of range", distMonth)
	}
	sd.opts.DistMonth = world.Month(distMonth)
	if sd.opts.Seed, err = c.u64(); err != nil {
		return err
	}
	if sd.opts.Months, err = c.monthSlice(); err != nil {
		return err
	}
	if sd.prov.Tool, err = c.str(); err != nil {
		return err
	}
	if sd.prov.WorldSeed, err = c.u64(); err != nil {
		return err
	}
	sd.prov.Scale, err = c.str()
	return err
}

// strTable decodes n length-prefixed strings, required to be strictly
// sorted. The strings are sliced out of one shared backing copy of the
// cursor's remaining bytes instead of allocated individually — for the
// domain table and key universe (tens of thousands of entries) this
// removes one allocation and one GC-tracked object per string.
func (c *snapCursor) strTable(n int, what string) ([]string, error) {
	// First pass: measure the table's byte extent, so the shared copy
	// holds exactly the table and not the rest of the section.
	base := c.off
	for i := 0; i < n; i++ {
		ln, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if _, err := c.take(int(ln)); err != nil {
			return nil, err
		}
	}
	blob := string(c.b[base:c.off])
	c.off = base
	out := make([]string, n)
	for i := range out {
		ln, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		start := c.off - base
		if _, err := c.take(int(ln)); err != nil {
			return nil, err
		}
		out[i] = blob[start : start+int(ln)]
		if i > 0 && out[i] <= out[i-1] {
			return nil, c.errf("%s not strictly sorted at entry %d (%q after %q)", what, i, out[i], out[i-1])
		}
	}
	return out, nil
}

func (sd *snapDecoded) decodeDoms(c *snapCursor) error {
	n, err := c.count(1)
	if err != nil {
		return err
	}
	sd.doms, err = c.strTable(n, "domain table")
	return err
}

// listEntrySize is the fixed encoded size of one rank-list entry:
// u32 domain index + f64 value.
const listEntrySize = 12

// listSpan is one cell's raw entry bytes, located during the O(1)
// sequential walk and decoded in parallel afterwards.
type listSpan struct {
	key  string
	raw  []byte
	list RankList
}

func (sd *snapDecoded) decodeLists(c *snapCursor) error {
	// ≥2 bytes per cell: 1-byte key length + presence byte.
	n, err := c.count(2)
	if err != nil {
		return err
	}
	sd.lists = make(map[string]RankList, n)
	spans := make([]listSpan, 0, n)
	prevKey := ""
	for i := 0; i < n; i++ {
		key, err := c.str()
		if err != nil {
			return err
		}
		if i > 0 && key <= prevKey {
			return c.errf("list keys not strictly sorted (%q after %q)", key, prevKey)
		}
		prevKey = key
		ok, err := c.pres()
		if err != nil {
			return err
		}
		if !ok {
			sd.lists[key] = nil
			continue
		}
		entries, err := c.count(listEntrySize)
		if err != nil {
			return err
		}
		raw, err := c.take(entries * listEntrySize)
		if err != nil {
			return err
		}
		spans = append(spans, listSpan{key: key, raw: raw})
	}
	// Entry decode dominates snapshot load; cells are independent, so
	// fan them out. All lists live in one backing block (sub-sliced
	// per cell with full capacity clamps) — far fewer allocations and
	// GC objects than one slice per cell. Each goroutine writes only
	// its own span.
	total := 0
	for i := range spans {
		total += len(spans[i].raw) / listEntrySize
	}
	block := make([]Entry, total)
	off := 0
	for i := range spans {
		n := len(spans[i].raw) / listEntrySize
		spans[i].list = block[off : off+n : off+n]
		off += n
	}
	errs := make([]error, len(spans))
	parallel.ForEach(len(spans), func(i int) {
		sp := &spans[i]
		list := sp.list
		for j := range list {
			rec := sp.raw[j*listEntrySize:]
			di := binary.LittleEndian.Uint32(rec)
			if int64(di) >= int64(len(sd.doms)) {
				errs[i] = c.errf("list %q entry %d: domain index %d out of range (%d domains)", sp.key, j, di, len(sd.doms))
				return
			}
			list[j] = Entry{
				Domain: sd.doms[di],
				Value:  math.Float64frombits(binary.LittleEndian.Uint64(rec[4:])),
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i := range spans {
		sd.lists[spans[i].key] = spans[i].list
	}
	return nil
}

func (sd *snapDecoded) decodeCoverage(c *snapCursor) error {
	// ≥9 bytes per entry: 1-byte key length + 8-byte share.
	n, err := c.count(9)
	if err != nil {
		return err
	}
	sd.coverage = make(map[string]float64, n)
	prevKey := ""
	for i := 0; i < n; i++ {
		key, err := c.str()
		if err != nil {
			return err
		}
		if i > 0 && key <= prevKey {
			return c.errf("coverage keys not strictly sorted (%q after %q)", key, prevKey)
		}
		prevKey = key
		if sd.coverage[key], err = c.f64(); err != nil {
			return err
		}
	}
	return nil
}

func (sd *snapDecoded) decodeDist(c *snapCursor) error {
	n, err := c.count(2)
	if err != nil {
		return err
	}
	sd.dist = make(map[string]*DistCurve, n)
	prevKey := ""
	for i := 0; i < n; i++ {
		key, err := c.str()
		if err != nil {
			return err
		}
		if i > 0 && key <= prevKey {
			return c.errf("dist keys not strictly sorted (%q after %q)", key, prevKey)
		}
		prevKey = key
		ok, err := c.pres()
		if err != nil {
			return err
		}
		if !ok {
			sd.dist[key] = nil
			continue
		}
		shares, err := c.f64Slice()
		if err != nil {
			return err
		}
		sd.dist[key] = &DistCurve{Shares: shares}
	}
	return nil
}

func (sd *snapDecoded) decodeIndex(c *snapCursor) error {
	numKeys, err := c.count(1)
	if err != nil {
		return err
	}
	if sd.keys, err = c.strTable(numKeys, "index keys"); err != nil {
		return err
	}
	numCells, err := c.count(2)
	if err != nil {
		return err
	}
	sd.cells = make(map[string]*cellKeys, numCells)
	type cellSpan struct {
		key  string
		raw  []byte
		cell *cellKeys
	}
	spans := make([]cellSpan, 0, numCells)
	prevKey := ""
	for i := 0; i < numCells; i++ {
		key, err := c.str()
		if err != nil {
			return err
		}
		if i > 0 && key <= prevKey {
			return c.errf("index cell keys not strictly sorted (%q after %q)", key, prevKey)
		}
		prevKey = key
		// ≥8 bytes per element: 4-byte id + 4-byte first position.
		n, err := c.count(8)
		if err != nil {
			return err
		}
		raw, err := c.take(n * 8)
		if err != nil {
			return err
		}
		spans = append(spans, cellSpan{key: key, raw: raw})
	}
	// Bulk-convert both u32 arrays per cell, cells in parallel — the
	// index half of the decode hot path. As with the rank lists, all
	// cells share backing blocks.
	total := 0
	for i := range spans {
		total += len(spans[i].raw) / 8
	}
	idBlock := make([]KeyID, total)
	posBlock := make([]int32, total)
	cellBlock := make([]cellKeys, len(spans))
	off := 0
	for i := range spans {
		n := len(spans[i].raw) / 8
		cellBlock[i].ids = idBlock[off : off+n : off+n]
		cellBlock[i].firstPos = posBlock[off : off+n : off+n]
		spans[i].cell = &cellBlock[i]
		off += n
	}
	parallel.ForEach(len(spans), func(i int) {
		sp := &spans[i]
		n := len(sp.raw) / 8
		cell := sp.cell
		for j := range cell.ids {
			cell.ids[j] = KeyID(binary.LittleEndian.Uint32(sp.raw[j*4:]))
		}
		rawPos := sp.raw[n*4:]
		for j := range cell.firstPos {
			cell.firstPos[j] = int32(binary.LittleEndian.Uint32(rawPos[j*4:]))
		}
	})
	for i := range spans {
		sd.cells[spans[i].key] = spans[i].cell
	}
	return nil
}

// validateIndex checks the decoded index against the decoded lists:
// there must be exactly one cell view per rank list, and every view
// must stay inside the key universe and keep first-occurrence
// positions strictly increasing within the list bounds — the
// invariants buildIndex guarantees, so a decoded index behaves exactly
// like a built one.
func validateIndex(lists map[string]RankList, keys []string, cells map[string]*cellKeys) error {
	if len(cells) != len(lists) {
		return fmt.Errorf("index holds %d cell views, dataset %d rank lists", len(cells), len(lists))
	}
	for key, cell := range cells {
		if err := parseCellKey(key); err != nil {
			return err
		}
		list, ok := lists[key]
		if !ok {
			return fmt.Errorf("index cell %q has no rank list", key)
		}
		if len(cell.ids) != len(cell.firstPos) {
			return fmt.Errorf("index cell %q: %d ids but %d positions", key, len(cell.ids), len(cell.firstPos))
		}
		if len(cell.ids) > len(list) {
			return fmt.Errorf("index cell %q: %d merged keys exceed list length %d", key, len(cell.ids), len(list))
		}
		prev := int32(-1)
		for i, id := range cell.ids {
			if id < 0 || int(id) >= len(keys) {
				return fmt.Errorf("index cell %q entry %d: key id %d outside universe [0,%d)", key, i, id, len(keys))
			}
			fp := cell.firstPos[i]
			if fp <= prev || int(fp) >= len(list) {
				return fmt.Errorf("index cell %q entry %d: first position %d invalid (prev %d, list length %d)",
					key, i, fp, prev, len(list))
			}
			prev = fp
		}
	}
	return nil
}

// DecodeSnapshotBytes decodes a .wwb snapshot held fully in memory (a
// read or mmapped file), restoring the dataset's interned KeyIndex and
// per-cell views without re-interning. Section payloads are sliced out
// of data without copying; everything the returned Dataset references
// is freshly allocated, so the caller may release (e.g. munmap) data
// as soon as the call returns. A .wwbd delta is refused with a
// descriptive error: its base resolves relative to the file's
// directory, so deltas decode through DecodeAnyPath.
func DecodeSnapshotBytes(data []byte) (*Dataset, *SnapshotInfo, error) {
	if IsDeltaSnapshot(data) {
		return nil, nil, errDeltaNeedsPath
	}
	w, err := openArtifact(data, "snapshot", ".wwb snapshot", snapshotMagic, SnapshotVersion)
	if err != nil {
		return nil, nil, err
	}
	sd := &snapDecoded{}
	if err := w.decode(section{"META", sd.decodeMeta}, section{"DOMS", sd.decodeDoms}); err != nil {
		return nil, nil, err
	}
	// LSTS is the largest section; decode it concurrently with the
	// sections after it (only DOMS is an input to it). Both big
	// sections additionally fan their cells out across CPUs.
	lstsCur, err := w.next("LSTS")
	if err != nil {
		return nil, nil, err
	}
	lstsErr := make(chan error, 1)
	go func() { lstsErr <- w.decodeAll(lstsCur, sd.decodeLists) }()
	restErr := w.decode(section{"COVR", sd.decodeCoverage}, section{"DIST", sd.decodeDist}, section{"INDX", sd.decodeIndex})
	// Report errors in section order: LSTS before anything after it.
	if err := <-lstsErr; err != nil {
		return nil, nil, err
	}
	if restErr != nil {
		return nil, nil, restErr
	}
	if err := w.end(); err != nil {
		return nil, nil, err
	}

	if err := validateDataset(sd.months, sd.lists, sd.coverage, sd.dist); err != nil {
		return nil, nil, fmt.Errorf("chrome: invalid dataset: %w", err)
	}
	if err := validateIndex(sd.lists, sd.keys, sd.cells); err != nil {
		return nil, nil, fmt.Errorf("chrome: snapshot: invalid index: %w", err)
	}

	ds := &Dataset{
		Opts:      sd.opts,
		Countries: sd.countries,
		Months:    sd.months,
		lists:     sd.lists,
		dist:      sd.dist,
		coverage:  sd.coverage,
	}
	// Freshly built dataset: generation 0 == indexGen 0.
	ds.index = &KeyIndex{keys: sd.keys, cells: sd.cells}
	return ds, &SnapshotInfo{Format: FormatWWB, Version: SnapshotVersion, Provenance: sd.prov}, nil
}
