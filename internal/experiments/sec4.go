package experiments

import (
	"fmt"
	"sort"
	"strings"

	"wwb/internal/analysis"
	"wwb/internal/report"
	"wwb/internal/taxonomy"
	"wwb/internal/world"
)

// Fig1 renders the traffic-concentration curves: share of traffic
// captured by top-N, per platform × metric.
func (r Runner) Fig1() string {
	t := report.NewTable("cumulative share of traffic at top-N",
		"platform", "metric", "N=1", "N=10", "N=100", "N=1K", "N=10K", "sites@25%", "sites@50%")
	for _, p := range world.Platforms {
		for _, m := range world.Metrics {
			c := r.Study.Concentration(p, m)
			t.AddRow(p.String(), m.String(),
				report.Pct(c.CumShare[1]), report.Pct(c.CumShare[10]),
				report.Pct(c.CumShare[100]), report.Pct(c.CumShare[1000]),
				report.Pct(c.CumShare[10000]),
				report.Itoa(c.SitesFor25), report.Itoa(c.SitesFor50))
		}
	}
	return t.String()
}

// Sec41 renders the Section 4.1 prose numbers.
func (r Runner) Sec41() string {
	var b strings.Builder
	for _, m := range world.Metrics {
		c := r.Study.Concentration(world.Windows, m)
		leaders := c.TopSiteLeaders()
		fmt.Fprintf(&b, "Windows %s: median national top-1 share %s; #1 site by country:",
			m, report.Pct(c.MedianTop1))
		for i, l := range leaders {
			if i >= 3 {
				break
			}
			fmt.Fprintf(&b, " %s in %d", l.Key, l.Count)
		}
		fmt.Fprintln(&b)
	}
	a := r.Study.Concentration(world.Android, world.PageLoads)
	w := r.Study.Concentration(world.Windows, world.PageLoads)
	fmt.Fprintf(&b, "sites covering 25%% of page loads: Windows %d vs Android %d (paper: 6 vs 10)\n",
		w.SitesFor25, a.SitesFor25)
	return b.String()
}

// Fig2 renders the category breakdown of top-100 and top-10K sites.
func (r Runner) Fig2() string {
	var b strings.Builder
	for _, p := range world.Platforms {
		for _, m := range world.Metrics {
			for _, n := range []int{100, 10000} {
				br := r.Study.UseCases(p, m, n)
				t := report.NewTable(
					fmt.Sprintf("%s / %s / top-%d", p, m, n),
					"category", "% of sites", "% of traffic")
				for i, cat := range br.TopCategories() {
					if i >= 8 {
						break
					}
					t.AddRow(string(cat), report.Pct(br.ByCount[cat]), report.Pct(br.ByWeight[cat]))
				}
				b.WriteString(t.String())
			}
		}
	}
	return b.String()
}

// Table4 renders the Section 4.2.1 top-10 composition: how many
// countries have each category in their top ten.
func (r Runner) Table4() string {
	t := report.NewTable("countries with category in top-10 (Windows)",
		"category", "by page loads", "by time on page")
	loads := r.Study.TopTenPresence(world.Windows, world.PageLoads)
	times := r.Study.TopTenPresence(world.Windows, world.TimeOnPage)
	asFloat := map[taxonomy.Category]float64{}
	for c, n := range loads {
		asFloat[c] = float64(n)
	}
	for _, cat := range sortedByValue(asFloat) {
		t.AddRow(string(cat), report.Itoa(loads[cat]), report.Itoa(times[cat]))
	}
	return t.String()
}

// fig3Categories are the categories plotted in Figure 3.
var fig3Categories = []taxonomy.Category{
	taxonomy.VideoStreaming, taxonomy.Business, taxonomy.NewsMedia,
	taxonomy.Technology, taxonomy.Pornography, taxonomy.Ecommerce,
}

// fig3Thresholds sweep the rank axis.
var fig3Thresholds = []int{10, 30, 50, 100, 300, 1000, 3000, 10000}

// Fig3 renders category prevalence by rank threshold (page loads).
func (r Runner) Fig3() string {
	return r.prevalence(world.PageLoads)
}

// Fig14 renders the same, split out for time on page.
func (r Runner) Fig14() string {
	return r.prevalence(world.TimeOnPage)
}

func (r Runner) prevalence(m world.Metric) string {
	var b strings.Builder
	for _, p := range world.Platforms {
		t := report.NewTable(
			fmt.Sprintf("%% of top-N sites per category, %s / %s (median [q1,q3])", p, m),
			append([]string{"category"}, nLabels(fig3Thresholds)...)...)
		all := r.Study.PrevalenceByRank(fig3Categories, p, m, fig3Thresholds)
		for i, cat := range fig3Categories {
			row := []string{string(cat)}
			for _, pt := range all[i] {
				row = append(row, fmt.Sprintf("%s [%s,%s]",
					report.Pct(pt.Median), report.Pct(pt.Q1), report.Pct(pt.Q3)))
			}
			t.AddRow(row...)
		}
		b.WriteString(t.String())
	}
	return b.String()
}

func nLabels(ns []int) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = fmt.Sprintf("N=%d", n)
	}
	return out
}

// Fig4 renders the platform difference scores for page loads.
func (r Runner) Fig4() string {
	return r.platformDiff(world.PageLoads)
}

// Fig15 renders the platform difference scores for time on page.
func (r Runner) Fig15() string {
	return r.platformDiff(world.TimeOnPage)
}

func (r Runner) platformDiff(m world.Metric) string {
	diffs := r.Study.PlatformDiff(m, 10000)
	t := report.NewTable(
		fmt.Sprintf("normalised (Android-Windows)/max score, %s", m),
		"category", "score", "significant countries")
	for _, d := range diffs {
		t.AddRow(string(d.Category), report.F2(d.Score), report.Itoa(d.SignificantCountries))
	}
	return t.String()
}

// Sec44 renders the metric-agreement numbers.
func (r Runner) Sec44() string {
	depth := r.agreementDepth()
	t := report.NewTable(
		fmt.Sprintf("page loads vs time on page agreement at top-%d", depth),
		"platform", "median intersection", "median Spearman")
	for _, p := range world.Platforms {
		a := r.Study.MetricAgreement(p, depth)
		t.AddRow(p.String(), report.Pct(a.MedianIntersection), report.F2(a.MedianSpearman))
	}
	return t.String()
}

// agreementDepth picks a comparison depth below the typical list
// length so truncation — not list identity — drives set differences:
// one third of the median country list length (see EXPERIMENTS.md).
func (r Runner) agreementDepth() int {
	var lens []int
	for _, c := range r.Study.Dataset.Countries {
		lens = append(lens, len(r.Study.Dataset.List(c, world.Windows, world.PageLoads, r.Study.Month)))
	}
	if len(lens) == 0 {
		return 50
	}
	sort.Ints(lens)
	depth := lens[len(lens)/2] / 3
	if depth > 10000 {
		depth = 10000
	}
	if depth < 50 {
		depth = 50
	}
	return depth
}

// Fig5 renders the metric-leaning categories for desktop.
func (r Runner) Fig5() string {
	return r.metricLean(world.Windows)
}

// Fig16 renders the metric-leaning categories for mobile.
func (r Runner) Fig16() string {
	return r.metricLean(world.Android)
}

func (r Runner) metricLean(p world.Platform) string {
	leans := r.Study.MetricLean(p, 10000)
	t := report.NewTable(
		fmt.Sprintf("median category share within lean groups, %s", p),
		"category", "loads-leaning", "other", "time-leaning")
	for _, l := range leans {
		max := l.Share[analysis.LeanLoads]
		if l.Share[analysis.LeanTime] > max {
			max = l.Share[analysis.LeanTime]
		}
		if l.Share[analysis.LeanNeither] > max {
			max = l.Share[analysis.LeanNeither]
		}
		if max < 0.03 { // the paper plots categories above 3% prevalence
			continue
		}
		t.AddRow(string(l.Category),
			report.Pct(l.Share[analysis.LeanLoads]),
			report.Pct(l.Share[analysis.LeanNeither]),
			report.Pct(l.Share[analysis.LeanTime]))
	}
	return t.String()
}

// Sec45 renders the temporal-stability rows and the December category
// drift.
func (r Runner) Sec45() string {
	var b strings.Builder
	if len(r.Study.Dataset.Months) < 2 {
		return "temporal analysis requires a multi-month dataset (assemble without FebOnly)\n"
	}
	t := report.NewTable("adjacent-month list similarity (Windows page loads)",
		"months", "bucket", "median intersection", "q1", "q3", "median Spearman")
	rows := r.Study.Temporal(world.Windows, world.PageLoads, analysis.AdjacentPairs(), []int{20, 100, 10000})
	for _, row := range rows {
		t.AddRow(row.Pair.String(), report.Itoa(row.Bucket),
			report.Pct(row.MedianIntersection), report.Pct(row.Q1Intersection),
			report.Pct(row.Q3Intersection), report.F2(row.MedianSpearman))
	}
	b.WriteString(t.String())

	drift := r.Study.CategoryDrift(world.Windows, world.TimeOnPage, 10000)
	t2 := report.NewTable("median category share of top-10K by month (Windows time)",
		"category", "Nov", "Dec", "Jan")
	for _, cat := range []taxonomy.Category{taxonomy.Ecommerce, taxonomy.Education, taxonomy.EducationalInstitutions} {
		t2.AddRow(string(cat),
			report.Pct(drift[world.Nov2021][cat]),
			report.Pct(drift[world.Dec2021][cat]),
			report.Pct(drift[world.Jan2022][cat]))
	}
	b.WriteString(t2.String())
	return b.String()
}

// Fig13 renders the category-API accuracy validation.
func (r Runner) Fig13() string {
	t := report.NewTable("manual validation of API labels (10 samples per category)",
		"category", "yes", "maybe", "no", "accuracy", "kept")
	for _, row := range r.Study.Validation.PerCategory {
		t.AddRow(string(row.Category), report.Itoa(row.Correct), report.Itoa(row.Maybe),
			report.Itoa(row.Incorrect), report.Pct(row.Accuracy()),
			fmt.Sprintf("%v", row.Kept))
	}
	return t.String()
}

// Table3 renders the final taxonomy.
func (r Runner) Table3() string {
	t := report.NewTable("final category taxonomy (22 super-categories, 61 categories)",
		"super-category", "categories")
	for _, sup := range taxonomy.Table3SuperCategories() {
		var names []string
		for _, c := range taxonomy.InSuper(sup) {
			if !taxonomy.ManuallyVerified(c) {
				names = append(names, string(c))
			}
		}
		t.AddRow(string(sup), strings.Join(names, "; "))
	}
	return t.String()
}
