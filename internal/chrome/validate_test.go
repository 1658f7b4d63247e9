package chrome

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"sort"
	"strings"
	"testing"

	"wwb/internal/world"
)

// usFeb is the one cell most corrupt cases corrupt.
var usFeb = CellKey{"US", world.Windows, world.PageLoads, world.Feb2022}

// corruptCases violate a dataset invariant, each with a fragment of
// the error that must name it. A case is either a Dataset, which
// EncodeSnapshot encodes without validating, or — for a corrupt key
// text, which no typed key formats to — raw key texts that
// keyTexts.artifact writes into the sections verbatim. The decoders
// must reject every one with a descriptive error.
var corruptCases = map[string]struct {
	ds   *Dataset
	keys keyTexts
	want string
}{
	"malformed cell key":    {keys: keyTexts{lists: []string{"US|0|0"}}, want: "want country|platform|metric|month"},
	"empty country":         {keys: keyTexts{lists: []string{"|0|0|5"}}, want: "empty country"},
	"bad platform":          {keys: keyTexts{lists: []string{"US|7|0|5"}}, want: "bad platform"},
	"bad metric":            {keys: keyTexts{lists: []string{"US|0|9|5"}}, want: "bad metric"},
	"bad month":             {keys: keyTexts{lists: []string{"US|0|0|99"}}, want: "bad month"},
	"non-numeric key":       {keys: keyTexts{lists: []string{"US|x|0|5"}}, want: "bad platform"},
	"zero-padded key":       {keys: keyTexts{lists: []string{"US|00|0|5"}}, want: "bad platform"},
	"signed key":            {keys: keyTexts{lists: []string{"US|+0|0|5"}}, want: "bad platform"},
	"coverage without list": {keys: keyTexts{cov: []string{"US|0|0|5"}}, want: "has no list"},
	"bad coverage key":      {keys: keyTexts{lists: []string{"US|0|0|5"}, cov: []string{"US|0|0|05"}}, want: "bad month"},
	"empty domain":          {ds: &Dataset{cells: map[CellKey]cell{usFeb: {list: RankList{{Domain: "", Value: 1}}}}}, want: "empty domain"},
	"negative value":        {ds: &Dataset{cells: map[CellKey]cell{usFeb: {list: RankList{{Domain: "a.com", Value: -1}}}}}, want: "bad value"},
	"NaN-ish value":         {ds: &Dataset{cells: map[CellKey]cell{usFeb: {list: RankList{{Domain: "a.com", Value: math.Inf(1)}}}}}, want: "bad value"},
	"ascending values":      {ds: &Dataset{cells: map[CellKey]cell{usFeb: {list: RankList{{Domain: "a.com", Value: 1}, {Domain: "b.com", Value: 2}}}}}, want: "not descending"},
	"coverage above 1":      {ds: &Dataset{cells: map[CellKey]cell{usFeb: {coverage: 1.5, hasCoverage: true}}}, want: "outside [0,1]"},
	"coverage below 0":      {ds: &Dataset{cells: map[CellKey]cell{usFeb: {coverage: -0.1, hasCoverage: true}}}, want: "outside [0,1]"},
	"month out of range":    {ds: &Dataset{Months: []world.Month{99}}, want: "month 99 out of range"},
	"bad dist key":          {keys: keyTexts{dist: []string{"0"}}, want: "want platform|metric"},
	"dist key out of range": {keys: keyTexts{dist: []string{"9|9"}}, want: "bad platform"},
	"non-numeric dist key":  {keys: keyTexts{dist: []string{"a|b"}}, want: "bad platform"},
	"zero-padded dist key":  {keys: keyTexts{dist: []string{"0|00"}}, want: "bad metric"},
	"null dist curve":       {ds: &Dataset{dist: map[curveKey]*DistCurve{{}: nil}}, want: "null curve"},
	"dist share above 1":    {ds: &Dataset{dist: map[curveKey]*DistCurve{{}: {Shares: []float64{1.5}}}}, want: "outside [0,1]"},
	"ascending shares":      {ds: &Dataset{dist: map[curveKey]*DistCurve{{}: {Shares: []float64{0.1, 0.2}}}}, want: "shares not descending"},
}

// keyTexts are raw key texts for the LSTS, COVR and DIST sections,
// each slice sorted.
type keyTexts struct{ lists, cov, dist []string }

// artifact returns base — a snapshot or delta of no cells — with its
// LSTS, COVR and DIST sections replaced by sections holding the key
// texts verbatim: each list nil, each coverage share 0.5, each curve
// empty.
func (kt keyTexts) artifact(t testing.TB, base []byte) []byte {
	t.Helper()
	// Keep the file header and the first two sections: META (or DMET)
	// and DOMS.
	off := 12
	for i := 0; i < 2; i++ {
		off += 16 + int(binary.LittleEndian.Uint64(base[off+4:]))
	}
	var buf bytes.Buffer
	buf.Write(base[:off])
	e := &snapEncoder{w: bufio.NewWriter(&buf)}
	e.uvarint(uint64(len(kt.lists)))
	for _, k := range kt.lists {
		e.str(k)
		e.sec.WriteByte(presNil)
	}
	if err := e.flushSection("LSTS"); err != nil {
		t.Fatal(err)
	}
	e.uvarint(uint64(len(kt.cov)))
	for _, k := range kt.cov {
		e.str(k)
		e.f64(0.5)
	}
	if err := e.flushSection("COVR"); err != nil {
		t.Fatal(err)
	}
	e.uvarint(uint64(len(kt.dist)))
	for _, k := range kt.dist {
		e.str(k)
		e.sec.WriteByte(presSome)
		e.f64Slice([]float64{})
	}
	if err := e.flushSection("DIST"); err != nil {
		t.Fatal(err)
	}
	if err := e.w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// emptyArtifacts returns a snapshot and a delta that hold no cells.
func emptyArtifacts(t testing.TB) (snap, delta []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeDelta(&buf, &Increment{Month: world.Feb2022}, DeltaBase{Name: "study.wwb"}, testProvenance); err != nil {
		t.Fatal(err)
	}
	return snapshotBytes(t, &Dataset{}), buf.Bytes()
}

// keyCaseArtifacts frames every key-text corrupt case, in name order,
// by base: the fuzzers' seeds.
func keyCaseArtifacts(t testing.TB, base []byte) [][]byte {
	var names []string
	for name, tc := range corruptCases {
		if tc.ds == nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	out := make([][]byte, len(names))
	for i, name := range names {
		out[i] = corruptCases[name].keys.artifact(t, base)
	}
	return out
}

// TestDecodeRejectsCorruptDatasets feeds every corrupt case to the
// snapshot decoder, and every key-text case to the delta decoder too.
func TestDecodeRejectsCorruptDatasets(t *testing.T) {
	emptySnap, emptyDelta := emptyArtifacts(t)
	for name, tc := range corruptCases {
		check := func(format string, err error) {
			if err == nil {
				t.Errorf("%s: %s decoder accepted the input", name, format)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: %s decoder error %q does not mention %q", name, format, err, tc.want)
			} else if prefix := "chrome: " + format + ":"; !strings.HasPrefix(err.Error(), prefix) {
				t.Errorf("%s: %s decoder error %q does not start with %q", name, format, err, prefix)
			}
		}
		if tc.ds != nil {
			_, _, err := DecodeSnapshotBytes(snapshotBytes(t, tc.ds))
			check("snapshot", err)
			continue
		}
		_, _, err := DecodeSnapshotBytes(tc.keys.artifact(t, emptySnap))
		check("snapshot", err)
		_, err = DecodeDeltaBytes(tc.keys.artifact(t, emptyDelta))
		check("delta", err)
	}
}

// TestKeyTextsFrameValidArtifacts: canonical key texts framed the same
// way decode, so each rejection above is the key's doing.
func TestKeyTextsFrameValidArtifacts(t *testing.T) {
	emptySnap, emptyDelta := emptyArtifacts(t)
	kt := keyTexts{lists: []string{"US|0|0|5"}, cov: []string{"US|0|0|5"}, dist: []string{"0|0"}}
	ds, _, err := DecodeSnapshotBytes(kt.artifact(t, emptySnap))
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumLists() != 1 || ds.Coverage("US", world.Windows, world.PageLoads, world.Feb2022) != 0.5 || ds.Dist(world.Windows, world.PageLoads) == nil {
		t.Errorf("decoded %d lists, coverage %v, curve %v", ds.NumLists(), ds.Coverage("US", world.Windows, world.PageLoads, world.Feb2022), ds.Dist(world.Windows, world.PageLoads))
	}
	if _, err := DecodeDeltaBytes(kt.artifact(t, emptyDelta)); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeRejectsTruncatedFile: a snapshot file cut short on disk is
// rejected by the path loader, never half-decoded.
func TestDecodeRejectsTruncatedFile(t *testing.T) {
	snap := snapshotBytes(t, testDataset)
	path := writeArtifact(t, t.TempDir(), "half.wwb", snap[:len(snap)/2])
	if _, _, err := DecodeAnyPath(path); err == nil {
		t.Error("DecodeAnyPath accepted a truncated file")
	}
}

// exerciseDataset walks the full query surface (List, Coverage, Dist,
// Index) of an accepted dataset: whatever the decoder lets through must
// never panic under the queries the server issues. Used by
// FuzzDecodeSnapshot.
func exerciseDataset(ds *Dataset) {
	for _, c := range append(ds.Countries, "US", "") {
		l := ds.List(c, world.Windows, world.PageLoads, world.Feb2022)
		_ = l.TopN(10)
		_ = l.Rank("a.com")
		_ = ds.Coverage(c, world.Windows, world.PageLoads, world.Feb2022)
	}
	if curve := ds.Dist(world.Windows, world.PageLoads); curve != nil {
		_ = curve.CumShare(10)
		_ = curve.WeightAt(1)
		_ = curve.SitesForShare(0.5)
	}
	ix := ds.Index()
	_ = ix.NumKeys()
	_ = ix.Key(0)
	if id, ok := ix.ID("a"); ok {
		_ = ix.Rank("US", world.Windows, world.PageLoads, world.Feb2022, id)
	}
	for _, c := range ds.Countries {
		_ = ix.MergedIDsTopN(c, world.Windows, world.PageLoads, world.Feb2022, 10)
	}
}
