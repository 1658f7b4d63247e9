package chrome

import (
	"math"
	"strings"
	"testing"

	"wwb/internal/world"
)

// corruptCases are datasets that violate a dataset invariant, each
// with a fragment of the error that must name it. EncodeSnapshot does
// not validate, so every one encodes; DecodeSnapshotBytes must reject
// every one with a descriptive error.
var corruptCases = map[string]struct {
	ds   *Dataset
	want string
}{
	"malformed cell key": {&Dataset{lists: map[string]RankList{"US|0|0": {}}}, "want country|platform|metric|month"},
	"empty country":      {&Dataset{lists: map[string]RankList{"|0|0|5": {}}}, "empty country"},
	"bad platform":       {&Dataset{lists: map[string]RankList{"US|7|0|5": {}}}, "bad platform"},
	"bad metric":         {&Dataset{lists: map[string]RankList{"US|0|9|5": {}}}, "bad metric"},
	"bad month":          {&Dataset{lists: map[string]RankList{"US|0|0|99": {}}}, "bad month"},
	"non-numeric key":    {&Dataset{lists: map[string]RankList{"US|x|0|5": {}}}, "bad platform"},
	"empty domain":       {&Dataset{lists: map[string]RankList{"US|0|0|5": {{Domain: "", Value: 1}}}}, "empty domain"},
	"negative value":     {&Dataset{lists: map[string]RankList{"US|0|0|5": {{Domain: "a.com", Value: -1}}}}, "bad value"},
	"NaN-ish value":      {&Dataset{lists: map[string]RankList{"US|0|0|5": {{Domain: "a.com", Value: math.Inf(1)}}}}, "bad value"},
	"ascending values":   {&Dataset{lists: map[string]RankList{"US|0|0|5": {{Domain: "a.com", Value: 1}, {Domain: "b.com", Value: 2}}}}, "not descending"},
	"coverage above 1":   {&Dataset{coverage: map[string]float64{"US|0|0|5": 1.5}}, "outside [0,1]"},
	"coverage below 0":   {&Dataset{coverage: map[string]float64{"US|0|0|5": -0.1}}, "outside [0,1]"},
	"month out of range": {&Dataset{Months: []world.Month{99}}, "month 99 out of range"},
	"bad dist key":       {&Dataset{dist: map[string]*DistCurve{"0": {Shares: []float64{}}}}, "want platform|metric"},
	"null dist curve":    {&Dataset{dist: map[string]*DistCurve{"0|0": nil}}, "null curve"},
	"dist share above 1": {&Dataset{dist: map[string]*DistCurve{"0|0": {Shares: []float64{1.5}}}}, "outside [0,1]"},
	"ascending shares":   {&Dataset{dist: map[string]*DistCurve{"0|0": {Shares: []float64{0.1, 0.2}}}}, "shares not descending"},
}

func TestDecodeRejectsCorruptDatasets(t *testing.T) {
	for name, tc := range corruptCases {
		_, _, err := DecodeSnapshotBytes(snapshotBytes(t, tc.ds))
		if err == nil {
			t.Errorf("%s: DecodeSnapshotBytes accepted the dataset", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
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
