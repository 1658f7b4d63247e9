package chrome

// Binary dataset snapshots (.wwb). The snapshot persists the assembled
// dataset once — the domain table and each cell's rank list as
// references into it — so `wwbserve -data study.wwb` answers its first
// query without re-assembling. The interned KeyIndex is not stored: the
// decoder derives it from what it holds, one PSL parse per domain-table
// entry and a pass over integers per cell, so it cannot disagree with
// the lists. It is the only lossless dataset format; .wwbd deltas
// (delta.go) extend it a month at a time. The layout (DESIGN.md §7):
//
//	magic[8]  version:u32
//	five sections in fixed order: META DOMS LSTS COVR DIST
//	  each: tag[4]  length:u64  crc:u32  payload[length]
//	EOF (trailing bytes are an error)
//
// All integers are little-endian; varints are unsigned/zig-zag LEB128
// (encoding/binary Uvarint/Varint). Strings are uvarint length + UTF-8
// bytes. Slices whose nil-ness is observable carry a leading presence
// byte, so a decoded dataset re-encodes to the same bytes. Rank-list
// entries are fixed-width (u32/f64) rather than varint so a decoder
// can locate every cell's byte span in O(1) and decode cells in
// parallel. Checksums are CRC-32C (Castagnoli) over each section
// payload.
//
// In memory, cells are keyed by CellKey and curves by (platform,
// metric). The keys' text — "country|platform|metric|month" and
// "platform|metric", enums as decimal integers — exists only in LSTS,
// COVR and DIST, which store keys in text order. A decoder parses each
// key once, range-checks it, and accepts only the text the key formats
// back to, so no two texts name one cell.
//
// Decoding runs over the whole file held in memory and is defensive
// end to end: every declared length — each section length against the
// bytes left in the file, each element count against the bytes left in
// its section — is checked against the real input size before anything
// is sliced or allocated, so a corrupt header declaring an absurd
// length cannot OOM the process. Each section decoder then checks the
// invariants assembly holds of what it decodes — descending lists of
// finite values, shares in [0,1], every coverage share's cell present
// — so a corrupt or truncated file yields a descriptive error, never a
// dataset that panics under queries.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"wwb/internal/parallel"
	"wwb/internal/world"
)

// SnapshotVersion is the format version this build reads and writes.
const SnapshotVersion = 2

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
	Tool string `json:"tool"`
	// WorldSeed is the universe-generation seed (distinct from
	// Options.Seed, which drives telemetry sampling).
	WorldSeed uint64 `json:"worldSeed"`
	// Scale is the universe scale the world was generated at.
	Scale string `json:"scale"`
}

// SnapshotInfo describes a decoded dataset artifact.
type SnapshotInfo struct {
	// Format is FormatWWB, or FormatWWBD for a dataset resolved
	// through a base+delta chain.
	Format string `json:"format"`
	// Version is the artifact's format version.
	Version uint32 `json:"version"`
	// Provenance is the embedded provenance. For a resolved delta
	// chain it is the final delta's producer provenance.
	Provenance SnapshotProvenance `json:"provenance"`
	// Chain counts delta links resolved to produce the dataset: 0 for
	// a plain artifact, n for a base plus n stacked deltas.
	Chain int `json:"chain"`
}

// ---------------------------------------------------------------------------
// Key text

// String is the key's text form, "country|platform|metric|month" with
// the enums as decimal integers: the form LSTS and COVR store, and the
// order they store cells in.
func (k CellKey) String() string {
	return fmt.Sprintf("%s|%d|%d|%d", k.Country, k.Platform, k.Metric, k.Month)
}

// String is the key's text form, "platform|metric": the form DIST
// stores.
func (k curveKey) String() string {
	return fmt.Sprintf("%d|%d", k.Platform, k.Metric)
}

// keyText is a key with its text form.
type keyText[K any] struct {
	key  K
	text string
}

// byText returns m's keys with their texts, in text order: the order
// the codec stores keys in.
func byText[K interface {
	comparable
	String() string
}, V any](m map[K]V) []keyText[K] {
	out := make([]keyText[K], 0, len(m))
	for k := range m {
		out = append(out, keyText[K]{k, k.String()})
	}
	slices.SortFunc(out, func(a, b keyText[K]) int { return strings.Compare(a.text, b.text) })
	return out
}

// parseCellKey parses and range-checks a cell key's text form. Each
// field must read back as it is written (see enum), and a country
// holds no "|", so it accepts only the text String formats: two texts
// never land on one cell.
func parseCellKey(text string) (CellKey, error) {
	f := strings.Split(text, "|")
	if len(f) != 4 {
		return CellKey{}, fmt.Errorf("cell key %q: want country|platform|metric|month", text)
	}
	k := CellKey{f[0], world.Platform(enum(f[1])), world.Metric(enum(f[2])), world.Month(enum(f[3]))}
	switch {
	case k.Country == "":
		return CellKey{}, fmt.Errorf("cell key %q: empty country", text)
	case !world.ValidPlatform(int(k.Platform)):
		return CellKey{}, fmt.Errorf("cell key %q: bad platform %q", text, f[1])
	case !world.ValidMetric(int(k.Metric)):
		return CellKey{}, fmt.Errorf("cell key %q: bad metric %q", text, f[2])
	case !world.ValidMonth(int(k.Month)):
		return CellKey{}, fmt.Errorf("cell key %q: bad month %q", text, f[3])
	}
	return k, nil
}

// parseCurveKey parses and range-checks a curve key's text form,
// accepting only the text String formats, as parseCellKey does.
func parseCurveKey(text string) (curveKey, error) {
	f := strings.Split(text, "|")
	if len(f) != 2 {
		return curveKey{}, fmt.Errorf("dist key %q: want platform|metric", text)
	}
	k := curveKey{world.Platform(enum(f[0])), world.Metric(enum(f[1]))}
	switch {
	case !world.ValidPlatform(int(k.Platform)):
		return curveKey{}, fmt.Errorf("dist key %q: bad platform %q", text, f[0])
	case !world.ValidMetric(int(k.Metric)):
		return curveKey{}, fmt.Errorf("dist key %q: bad metric %q", text, f[1])
	}
	return k, nil
}

// enum reads a key's decimal field, or -1, which no enum holds, when
// the field is not the decimal text of a number: Atoi alone would
// also read "00" or "+0" as 0.
func enum(field string) int {
	v, err := strconv.Atoi(field)
	if err != nil || strconv.Itoa(v) != field {
		return -1
	}
	return v
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

// EncodeSnapshot writes the dataset as a versioned, checksummed binary
// snapshot: the rank lists, coverage, and distribution curves. Output
// is deterministic: all maps are serialised in key-text order, so
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

	if err := encodeDataSections(e, d.cells, d.dist); err != nil {
		return err
	}
	return e.w.Flush()
}

// encodeDataSections writes the DOMS/LSTS/COVR/DIST quartet for the
// given cells and curves — shared by full snapshots (the whole
// dataset) and delta snapshots (one month's increment), so both
// formats carry the identical byte layout for the identical data.
// Keys are written as their text, in text order.
func encodeDataSections(e *snapEncoder, cells map[CellKey]cell, dist map[curveKey]*DistCurve) error {
	keys := byText(cells)
	// DOMS: the deduplicated domain table, sorted. Rank-list entries
	// reference domains by index, so each distinct domain string is
	// stored (and later allocated) exactly once. Domains are interned
	// in first-seen order, then renumbered in sorted order: sorted[r]
	// is the first-seen index of the domain at table position r, and
	// pos inverts it.
	doms, refs := internDomains(keys, cells)
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

	// LSTS: every rank list. Entries are fixed 12-byte records (u32
	// domain index + f64 value) so a decoder can skip a whole cell in
	// O(1) and fan cell decoding out across CPUs.
	size := 0
	for _, k := range keys {
		size += 2*binary.MaxVarintLen64 + 1 + len(k.text) + listEntrySize*len(cells[k.key].list)
	}
	e.sec.Grow(size) // one allocation for the whole section
	e.uvarint(uint64(len(keys)))
	var covered []keyText[CellKey]
	for _, k := range keys {
		if cells[k.key].hasCoverage {
			covered = append(covered, k)
		}
		e.str(k.text)
		list := cells[k.key].list
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

	// COVR: the coverage share of every cell that has one.
	e.uvarint(uint64(len(covered)))
	for _, k := range covered {
		e.str(k.text)
		e.f64(cells[k.key].coverage)
	}
	if err := e.flushSection("COVR"); err != nil {
		return fmt.Errorf("chrome: snapshot: writing COVR: %w", err)
	}

	// DIST: the global distribution curves.
	curves := byText(dist)
	e.uvarint(uint64(len(curves)))
	for _, k := range curves {
		e.str(k.text)
		curve := dist[k.key]
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
	kind string // the walker's kind: "snapshot" or "delta"
	tag  string
	b    []byte
	off  int
}

func (c *snapCursor) errf(format string, args ...any) error {
	return fmt.Errorf("chrome: %s: section %s: %s", c.kind, c.tag, fmt.Sprintf(format, args...))
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
		if !world.ValidMonth(int(v)) {
			return nil, c.errf("month %d out of range", v)
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
	return &snapCursor{kind: w.kind, tag: tag, b: payload}, nil
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
	cells     map[CellKey]cell
	// cov holds COVR's shares until LSTS's cells are decoded: the two
	// sections decode concurrently, and join joins them.
	cov  []keyShare
	dist map[curveKey]*DistCurve
	// index, when set before LSTS is decoded, receives a view of every
	// rank list; domID holds each DOMS entry's key ID in its universe.
	index *KeyIndex
	domID []KeyID
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

// decodeDoms decodes the domain table: length-prefixed strings,
// required to be strictly sorted. The table is the whole section after
// its count, so the strings are sliced out of one shared copy of it
// instead of allocated individually — for tens of thousands of domains
// this removes one allocation and one GC-tracked object per string.
func (sd *snapDecoded) decodeDoms(c *snapCursor) error {
	n, err := c.count(1)
	if err != nil {
		return err
	}
	base := c.off
	blob := string(c.b[base:])
	sd.doms = make([]string, n)
	for i := range sd.doms {
		ln, err := c.uvarint()
		if err != nil {
			return err
		}
		start := c.off - base
		if _, err := c.take(int(ln)); err != nil {
			return err
		}
		d := blob[start : start+int(ln)]
		if i > 0 && d <= sd.doms[i-1] {
			return c.errf("domain table not strictly sorted at entry %d (%q after %q)", i, d, sd.doms[i-1])
		}
		sd.doms[i] = d
	}
	return nil
}

// listEntrySize is the fixed encoded size of one rank-list entry:
// u32 domain index + f64 value.
const listEntrySize = 12

// listSpan is one cell's raw entry bytes, located during the O(1)
// sequential walk and decoded in parallel afterwards; off is the
// cell's first entry in the backing blocks.
type listSpan struct {
	key  CellKey
	raw  []byte
	off  int
	list RankList
	view *cellKeys
}

func (sd *snapDecoded) decodeLists(c *snapCursor) error {
	// ≥2 bytes per cell: 1-byte key length + presence byte.
	n, err := c.count(2)
	if err != nil {
		return err
	}
	sd.cells = make(map[CellKey]cell, n)
	if sd.index != nil {
		sd.index.cells = make(map[CellKey]*cellKeys, n)
	}
	spans := make([]listSpan, 0, n)
	total := 0
	prevKey := ""
	for i := 0; i < n; i++ {
		key, err := readKey(c, i, &prevKey, parseCellKey)
		if err != nil {
			return err
		}
		ok, err := c.pres()
		if err != nil {
			return err
		}
		if !ok {
			sd.cells[key] = cell{}
			if sd.index != nil {
				sd.index.cells[key] = &cellKeys{ids: []KeyID{}, firstPos: []int32{}}
			}
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
		spans = append(spans, listSpan{key: key, raw: raw, off: total})
		total += entries
	}
	// Entry decode dominates snapshot load; cells are independent, so
	// fan them out. All lists live in one backing block (sub-sliced
	// per cell with full capacity clamps) — far fewer allocations and
	// GC objects than one slice per cell — and so do the index views,
	// sized for the no-duplicates worst case. Each goroutine writes
	// only its own span, and builds its view with a scratch of its own.
	block := make([]Entry, total)
	var idBlock []KeyID
	var posBlock []int32
	// Free view scratches: no more are made than workers run at once.
	free := make(chan *viewScratch, runtime.GOMAXPROCS(0))
	if sd.index != nil {
		idBlock, posBlock = make([]KeyID, total), make([]int32, total)
	}
	errs := make([]error, len(spans))
	parallel.ForEach(len(spans), func(i int) {
		sp := &spans[i]
		lo, hi := sp.off, sp.off+len(sp.raw)/listEntrySize
		list := block[lo:hi:hi]
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
		if err := validateList(sp.key, list); err != nil {
			errs[i] = c.errf("%v", err)
			return
		}
		sp.list = list
		if sd.index != nil {
			sp.view = sd.cellView(sp.raw, idBlock[lo:lo:hi], posBlock[lo:lo:hi], free)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i := range spans {
		sd.cells[spans[i].key] = cell{list: spans[i].list}
		if sd.index != nil {
			sd.index.cells[spans[i].key] = spans[i].view
		}
	}
	return nil
}

// validateList checks one rank list: non-empty domains, and finite,
// non-negative, descending values.
func validateList(key CellKey, list RankList) error {
	prev := math.Inf(1)
	for i, e := range list {
		if e.Domain == "" {
			return fmt.Errorf("list %q entry %d: empty domain", key, i)
		}
		if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) || e.Value < 0 {
			return fmt.Errorf("list %q entry %d (%s): bad value %v", key, i, e.Domain, e.Value)
		}
		if e.Value > prev {
			return fmt.Errorf("list %q entry %d (%s): values not descending (%v after %v)", key, i, e.Domain, e.Value, prev)
		}
		prev = e.Value
	}
	return nil
}

// cellView builds the index view of one cell from its raw LSTS
// entries, whose domain indexes are already range-checked, into ids
// and pos. It takes a scratch from free, or makes one when every
// scratch is in use, and returns it after.
func (sd *snapDecoded) cellView(raw []byte, ids []KeyID, pos []int32, free chan *viewScratch) *cellKeys {
	var vs *viewScratch
	select {
	case vs = <-free:
	default:
		vs = newViewScratch(len(sd.index.keys))
	}
	refs := vs.refs[:0]
	for j := 0; j < len(raw); j += listEntrySize {
		refs = append(refs, int32(binary.LittleEndian.Uint32(raw[j:])))
	}
	vs.refs = refs
	view := vs.view(&ids, &pos, refs, sd.domID)
	select {
	case free <- vs:
	default:
	}
	return view
}

// keyShare is one decoded COVR entry.
type keyShare struct {
	key   CellKey
	share float64
}

func (sd *snapDecoded) decodeCoverage(c *snapCursor) error {
	// ≥9 bytes per entry: 1-byte key length + 8-byte share.
	n, err := c.count(9)
	if err != nil {
		return err
	}
	sd.cov = make([]keyShare, n)
	prevKey := ""
	for i := range sd.cov {
		if sd.cov[i].key, err = readKey(c, i, &prevKey, parseCellKey); err != nil {
			return err
		}
		if sd.cov[i].share, err = c.f64(); err != nil {
			return err
		}
		if s := sd.cov[i].share; math.IsNaN(s) || s < 0 || s > 1 {
			return c.errf("coverage %q: %v outside [0,1]", sd.cov[i].key, s)
		}
	}
	return nil
}

func (sd *snapDecoded) decodeDist(c *snapCursor) error {
	n, err := c.count(2)
	if err != nil {
		return err
	}
	sd.dist = make(map[curveKey]*DistCurve, n)
	prevKey := ""
	for i := 0; i < n; i++ {
		key, err := readKey(c, i, &prevKey, parseCurveKey)
		if err != nil {
			return err
		}
		ok, err := c.pres()
		if err != nil {
			return err
		}
		if !ok {
			return c.errf("dist %q: null curve", key)
		}
		shares, err := c.f64Slice()
		if err != nil {
			return err
		}
		if err := validateCurve(key, shares); err != nil {
			return c.errf("%v", err)
		}
		sd.dist[key] = &DistCurve{Shares: shares}
	}
	return nil
}

// validateCurve checks one distribution curve: descending shares in
// [0,1].
func validateCurve(key curveKey, shares []float64) error {
	prev := math.Inf(1)
	for i, s := range shares {
		if math.IsNaN(s) || s < 0 || s > 1 {
			return fmt.Errorf("dist %q share %d: %v outside [0,1]", key, i, s)
		}
		if s > prev {
			return fmt.Errorf("dist %q share %d: shares not descending (%v after %v)", key, i, s, prev)
		}
		prev = s
	}
	return nil
}

// readKey reads the i-th key text of a section, checks that it sorts
// strictly after the previous one, *prev, and parses it. Parsers accept
// only canonical text, so strictly sorted texts are distinct keys.
func readKey[K any](c *snapCursor, i int, prev *string, parse func(string) (K, error)) (K, error) {
	var k K
	text, err := c.str()
	if err != nil {
		return k, err
	}
	if i > 0 && text <= *prev {
		return k, c.errf("keys not strictly sorted (%q after %q)", text, *prev)
	}
	*prev = text
	if k, err = parse(text); err != nil {
		return k, c.errf("%v", err)
	}
	return k, nil
}

// join gives each decoded cell its COVR share, refusing a share whose
// cell LSTS does not hold.
func (sd *snapDecoded) join() error {
	for _, cs := range sd.cov {
		c, ok := sd.cells[cs.key]
		if !ok {
			return fmt.Errorf("coverage %q has no list", cs.key)
		}
		c.coverage, c.hasCoverage = cs.share, true
		sd.cells[cs.key] = c
	}
	return nil
}

// DecodeSnapshotBytes decodes a .wwb snapshot held fully in memory (a
// read or mmapped file) and derives the dataset's interned KeyIndex
// from its domain table and rank lists. Section payloads are sliced out
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
	// The key universe is the site keys of the domain table: one PSL
	// parse per domain, overlapped with the LSTS checksum and the
	// sections after LSTS.
	keysDone := make(chan struct{})
	go func() {
		defer close(keysDone)
		var keys []string
		keys, _, sd.domID = mergeKeys(nil, domainKeys(sd.doms))
		sd.index = &KeyIndex{keys: keys}
	}()
	lstsCur, err := w.next("LSTS")
	if err != nil {
		<-keysDone
		return nil, nil, err
	}
	// LSTS is the largest section; once the keys are placed, decode it
	// and each cell's index view concurrently with the sections after
	// it (DOMS and the keys are its only inputs). It additionally fans
	// its cells out across CPUs.
	lstsErr := make(chan error, 1)
	go func() {
		<-keysDone
		lstsErr <- w.decodeAll(lstsCur, sd.decodeLists)
	}()
	restErr := w.decode(section{"COVR", sd.decodeCoverage}, section{"DIST", sd.decodeDist})
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

	if err := sd.join(); err != nil {
		return nil, nil, fmt.Errorf("chrome: snapshot: invalid dataset: %w", err)
	}

	ds := &Dataset{
		Opts:      sd.opts,
		Countries: sd.countries,
		Months:    sd.months,
		cells:     sd.cells,
		dist:      sd.dist,
	}
	// Freshly built dataset: generation 0 == indexGen 0.
	ds.index = sd.index
	return ds, &SnapshotInfo{Format: FormatWWB, Version: SnapshotVersion, Provenance: sd.prov}, nil
}
