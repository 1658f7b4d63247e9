package analysis

import (
	"sort"

	"wwb/internal/chrome"
	"wwb/internal/dist"
	"wwb/internal/taxonomy"
	"wwb/internal/world"
)

// CategoryBreakdown is one cell of Figure 2: the category composition
// of the top-N sites for a platform × metric, averaged across the 45
// countries, both by site count and by modelled traffic weight.
type CategoryBreakdown struct {
	Platform world.Platform
	Metric   world.Metric
	N        int
	ByCount  map[taxonomy.Category]float64
	ByWeight map[taxonomy.Category]float64
}

// AnalyzeUseCases computes Figure 2's breakdown for one platform,
// metric and list depth.
func AnalyzeUseCases(ds *chrome.Dataset, categorize dist.Categorize, p world.Platform, m world.Metric, month world.Month, n int) CategoryBreakdown {
	curve := ds.Dist(p, world.PageLoads) // the paper models volume with the page-loads curves only (§3.1)
	var counts, weights []map[taxonomy.Category]float64
	for _, country := range ds.Countries {
		list := ds.List(country, p, m, month)
		if len(list) == 0 {
			continue
		}
		counts = append(counts, dist.CountShare(list, n, categorize))
		weights = append(weights, dist.WeightedShare(list, n, curve, categorize))
	}
	return CategoryBreakdown{
		Platform: p,
		Metric:   m,
		N:        n,
		ByCount:  dist.AverageShares(counts),
		ByWeight: dist.AverageShares(weights),
	}
}

// TopCategories returns the breakdown's categories sorted by weight
// descending (count as tiebreak).
func (b CategoryBreakdown) TopCategories() []taxonomy.Category {
	cats := make([]taxonomy.Category, 0, len(b.ByWeight))
	seen := map[taxonomy.Category]bool{}
	for c := range b.ByWeight {
		cats = append(cats, c)
		seen[c] = true
	}
	for c := range b.ByCount {
		if !seen[c] {
			cats = append(cats, c)
		}
	}
	sort.Slice(cats, func(i, j int) bool {
		wi, wj := b.ByWeight[cats[i]], b.ByWeight[cats[j]]
		if wi != wj {
			return wi > wj
		}
		ci, cj := b.ByCount[cats[i]], b.ByCount[cats[j]]
		if ci != cj {
			return ci > cj
		}
		return cats[i] < cats[j]
	})
	return cats
}

// TopTenPresence counts, per category, the number of countries with at
// least one top-10 site of that category (Section 4.2.1: "all 45
// countries have at least one search engine and video sharing platform
// in the top ten").
func TopTenPresence(ds *chrome.Dataset, categorize dist.Categorize, p world.Platform, m world.Metric, month world.Month) map[taxonomy.Category]int {
	out := map[taxonomy.Category]int{}
	for _, country := range ds.Countries {
		list := ds.List(country, p, m, month).TopN(10)
		present := map[taxonomy.Category]bool{}
		for _, e := range list {
			present[categorize(e.Domain)] = true
		}
		for c := range present {
			out[c]++
		}
	}
	return out
}

// PrevalencePoint is one point of Figure 3: a category's share of the
// top-N sites at a rank threshold, with the 25–75 % quartiles across
// countries.
type PrevalencePoint struct {
	N              int
	Median, Q1, Q3 float64
}

// PrevalenceByRank sweeps rank thresholds for each requested category,
// producing the Figure 3 series (median and quartiles across countries):
// out[i] is cats[i]'s series, one point per threshold. Each country's
// list is walked once, up to the largest threshold, keeping a running
// count per category and reading the counts off at each threshold.
func PrevalenceByRank(ds *chrome.Dataset, categorize dist.Categorize, cats []taxonomy.Category, p world.Platform, m world.Metric, month world.Month, thresholds []int) [][]PrevalencePoint {
	// Threshold positions in ascending order, so one walk passes each.
	order := make([]int, len(thresholds))
	for t := range order {
		order[t] = t
	}
	sort.SliceStable(order, func(i, j int) bool { return thresholds[order[i]] < thresholds[order[j]] })

	// shares[c][t] holds cats[c]'s share of each country's top
	// thresholds[t] sites.
	shares := make([][][]float64, len(cats))
	for c := range shares {
		shares[c] = make([][]float64, len(thresholds))
	}
	counts := make([]int, len(cats))
	for _, country := range ds.Countries {
		list := ds.List(country, p, m, month)
		if len(list) == 0 {
			continue
		}
		clear(counts)
		walked := 0
		for _, t := range order {
			top := list.TopN(thresholds[t])
			for _, e := range top[walked:] {
				cat := categorize(e.Domain)
				for c := range cats {
					if cats[c] == cat {
						counts[c]++
					}
				}
			}
			walked = len(top)
			for c, k := range counts {
				var share float64
				if len(top) > 0 {
					share = float64(k) / float64(len(top))
				}
				shares[c][t] = append(shares[c][t], share)
			}
		}
	}

	out := make([][]PrevalencePoint, len(cats))
	for c := range cats {
		out[c] = make([]PrevalencePoint, len(thresholds))
		for t, n := range thresholds {
			q1, med, q3 := stQuartiles(shares[c][t])
			out[c][t] = PrevalencePoint{N: n, Median: med, Q1: q1, Q3: q3}
		}
	}
	return out
}
