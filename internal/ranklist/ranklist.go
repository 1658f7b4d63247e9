// Package ranklist provides comparison operations over rank-ordered
// site lists: percent intersection, Spearman rank correlation over the
// intersection (the paper's Section 4.4 and 4.5 machinery), and
// category filtering.
package ranklist

import (
	"wwb/internal/chrome"
	"wwb/internal/psl"
	"wwb/internal/stats"
	"wwb/internal/taxonomy"
)

// Comparison summarises how similar two rank lists are.
type Comparison struct {
	// PercentIntersection is |A ∩ B| / max(|A|, |B|).
	PercentIntersection float64
	// Spearman is the rank correlation over the common domains (NaN
	// when fewer than two are shared).
	Spearman float64
	// Common is the number of shared domains.
	Common int
}

// Compare computes intersection and Spearman's rho between two lists.
// Ranks are positions within each full list; only common domains enter
// the correlation, per the paper's methodology.
func Compare(a, b chrome.RankList) Comparison {
	posA := make(map[string]int, len(a))
	for i, e := range a {
		posA[e.Domain] = i + 1
	}
	var ra, rb []float64
	for j, e := range b {
		if i, ok := posA[e.Domain]; ok {
			ra = append(ra, float64(i))
			rb = append(rb, float64(j+1))
		}
	}
	return Comparison{
		PercentIntersection: stats.PercentIntersection(a.Domains(), b.Domains()),
		Spearman:            stats.Spearman(ra, rb),
		Common:              len(ra),
	}
}

// FilterCategory returns the sub-list of entries whose domain maps to
// the wanted category under categorize, preserving rank order.
func FilterCategory(l chrome.RankList, categorize func(string) taxonomy.Category, want taxonomy.Category) chrome.RankList {
	var out chrome.RankList
	for _, e := range l {
		if categorize(e.Domain) == want {
			out = append(out, e)
		}
	}
	return out
}

// MergedKeys returns the list's merged site keys in rank order,
// deduplicating keys that appear under several domains (Section 3.1's
// cross-ccTLD aggregation). The first (best-ranked) occurrence wins.
//
// It parses every entry's domain. Hot paths over a full Dataset
// should prefer the interned ID-space equivalent,
// chrome.KeyIndex.MergedIDs (and MergedIDsTopN for TopN prefixes):
// the index parses each distinct domain once, holds this computation
// for every cell, and returns dense int32 IDs ready for the
// allocation-free comparison kernels.
func MergedKeys(l chrome.RankList) []string {
	seen := make(map[string]struct{}, len(l))
	out := make([]string, 0, len(l))
	for _, e := range l {
		key := psl.Default.SiteKey(e.Domain)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, key)
	}
	return out
}

// KeyRanks returns merged key → best 1-based rank for a list.
//
// It parses every entry's domain. Hot paths over a full Dataset
// should prefer the interned ID-space equivalent,
// chrome.KeyIndex.KeyRankIDs (bulk) or chrome.KeyIndex.Rank (point
// lookup, its per-cell map built once), which avoid re-parsing and
// rebuilding this map per call.
func KeyRanks(l chrome.RankList) map[string]int {
	out := make(map[string]int, len(l))
	for i, e := range l {
		key := psl.Default.SiteKey(e.Domain)
		if _, dup := out[key]; !dup {
			out[key] = i + 1
		}
	}
	return out
}
