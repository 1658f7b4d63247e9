package experiments

import (
	"wwb/internal/endemicity"
	"wwb/internal/plot"
	"wwb/internal/world"
)

// SVG figure builders for the graphical report (cmd/wwbreport). Each
// mirrors one of the paper's plotted figures using the same analysis
// results the text experiments print.

// FigureSVG is one rendered figure.
type FigureSVG struct {
	ID    string
	Title string
	SVG   string
}

// Fig1SVG plots the distribution curves on log-log axes, the paper's
// Figure 1.
func (r Runner) Fig1SVG() FigureSVG {
	var series []plot.Series
	for _, p := range world.Platforms {
		for _, m := range world.Metrics {
			curve := r.Study.Dataset.Dist(p, m)
			n := curve.Len()
			if n > 10000 {
				n = 10000
			}
			var xs, ys []float64
			for rank := 1; rank <= n; rank *= 2 {
				xs = append(xs, float64(rank))
				ys = append(ys, curve.WeightAt(rank))
			}
			series = append(series, plot.Series{
				Name: p.String() + " / " + m.String(),
				X:    xs, Y: ys,
			})
		}
	}
	return FigureSVG{
		ID:    "fig1",
		Title: "Figure 1: share of traffic by rank (log-log)",
		SVG:   plot.Line("Share of traffic by popularity rank", "rank", "share of traffic", series, true, true),
	}
}

// Fig4SVG plots the platform-difference scores, the paper's Figure 4.
func (r Runner) Fig4SVG() FigureSVG {
	diffs := r.Study.PlatformDiff(world.PageLoads, 10000)
	var labels []string
	var values []float64
	for _, d := range diffs {
		labels = append(labels, string(d.Category))
		values = append(values, d.Score)
	}
	return FigureSVG{
		ID:    "fig4",
		Title: "Figure 4: mobile vs desktop category skew (page loads)",
		SVG:   plot.Bar("(Android − Windows) / max, per category", labels, values),
	}
}

// Fig7SVG plots the endemicity scatter, the paper's Figure 7.
func (r Runner) Fig7SVG() FigureSVG {
	res := r.Study.Endemicity(world.Windows, world.PageLoads)
	groups := map[endemicity.Label]*plot.Series{
		endemicity.National: {Name: "nationally popular"},
		endemicity.Global:   {Name: "globally popular"},
	}
	for i, c := range res.Curves {
		g := groups[res.Labels[i]]
		g.X = append(g.X, float64(c.BestRank()))
		g.Y = append(g.Y, c.Score())
	}
	return FigureSVG{
		ID:    "fig7",
		Title: "Figure 7: endemicity score vs best rank",
		SVG: plot.Scatter("Endemicity score by best national rank", "best rank (log)",
			"endemicity score", []plot.Series{*groups[endemicity.National], *groups[endemicity.Global]}, true),
	}
}

// Fig10SVG plots the country-similarity heatmap, the paper's Figure 10.
func (r Runner) Fig10SVG() FigureSVG {
	sm := r.Study.CountrySimilarity(world.Windows, world.PageLoads)
	return FigureSVG{
		ID:    "fig10",
		Title: "Figure 10: traffic-weighted country similarity (Windows page loads)",
		SVG:   plot.Heatmap("Pairwise weighted RBO", sm.Countries, sm.Sim),
	}
}

// Fig3SVG plots category prevalence by rank, the paper's Figure 3.
func (r Runner) Fig3SVG() FigureSVG {
	var series []plot.Series
	all := r.Study.PrevalenceByRank(fig3Categories, world.Windows, world.PageLoads, fig3Thresholds)
	for i, cat := range fig3Categories {
		var xs, ys []float64
		for _, p := range all[i] {
			xs = append(xs, float64(p.N))
			ys = append(ys, p.Median)
		}
		series = append(series, plot.Series{Name: string(cat), X: xs, Y: ys})
	}
	return FigureSVG{
		ID:    "fig3",
		Title: "Figure 3: category prevalence by rank threshold",
		SVG:   plot.Line("Median share of top-N sites per category", "N (log)", "share of sites", series, true, false),
	}
}

// Fig9SVG plots the global-share-by-bucket series, the paper's
// Figure 9.
func (r Runner) Fig9SVG() FigureSVG {
	buckets := r.Study.GlobalShareByBucket(world.Windows, world.PageLoads)
	var med, q1, q3 plot.Series
	med.Name, q1.Name, q3.Name = "median", "q1", "q3"
	for _, b := range buckets {
		x := float64(b.Lo+b.Hi) / 2
		med.X = append(med.X, x)
		med.Y = append(med.Y, b.Median)
		q1.X = append(q1.X, x)
		q1.Y = append(q1.Y, b.Q1)
		q3.X = append(q3.X, x)
		q3.Y = append(q3.Y, b.Q3)
	}
	return FigureSVG{
		ID:    "fig9",
		Title: "Figure 9: globally popular sites by rank bucket",
		SVG: plot.Line("Share of globally popular sites per rank bucket", "bucket centre rank (log)",
			"share globally popular", []plot.Series{med, q1, q3}, true, false),
	}
}

// Figures renders every SVG figure in order.
func (r Runner) Figures() []FigureSVG {
	return []FigureSVG{
		r.Fig1SVG(), r.Fig3SVG(), r.Fig4SVG(), r.Fig7SVG(), r.Fig9SVG(), r.Fig10SVG(),
	}
}
