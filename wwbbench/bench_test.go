package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"testing"
)

// tinyConfig runs a workload at the smallest scale with the fewest
// repetitions the harness accepts.
func tinyConfig(t *testing.T, workload string) config {
	return config{
		workload: workload, seed: 3, worldSeed: 3, seconds: 1, trace: true,
		scale: "small", root: "..", work: t.TempDir(), coldReps: 2,
	}
}

func TestWorkloadsPrintEveryMetricWithUnit(t *testing.T) {
	bench := loadBenchmarkJSON(t)
	units := map[string]string{}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		units[m.Name] = m.Unit
	}
	for _, w := range bench.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			rep, err := runWorkload(tinyConfig(t, w.Name))
			if err != nil {
				t.Fatal(err)
			}
			for _, trace := range []bool{false, true} {
				res, err := shape(w.Name, trace, rep)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				metrics := bench.EndToEnd
				if trace {
					metrics = bench.PerLayer
				}
				var want []string
				for _, m := range metrics {
					want = append(want, m.Name)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(want))
				}
				for _, name := range want {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("trace=%v: %s missing", trace, name)
					case m.Unit != units[name]:
						t.Errorf("trace=%v: %s in %q, BENCHMARK.json says %q", trace, name, m.Unit, units[name])
					case !trace && m.Value <= 0:
						t.Errorf("%s = %v, want > 0", name, m.Value)
					}
				}
			}
		})
	}
}

// garble flips the first byte of every response body after the
// checksum header has been computed.
func garble(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&garbler{ResponseWriter: w}, r)
	})
}

type garbler struct {
	http.ResponseWriter
	done bool
}

func (g *garbler) Write(p []byte) (int, error) {
	if !g.done && len(p) > 0 {
		g.done = true
		q := append([]byte(nil), p...)
		q[0] ^= 0x20
		return g.ResponseWriter.Write(q)
	}
	return g.ResponseWriter.Write(p)
}

func TestGarbledResponsesFailTheRun(t *testing.T) {
	cfg := tinyConfig(t, "serve")
	cfg.trace = false
	cfg.wrap = garble
	rep, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := shape(cfg.workload, true, rep)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("correct=%v failed=%d, want a failed run", res.Correct, res.Failed)
	}
	if fr := res.Metrics["fail_ratio"].Value; fr <= 0 || fr > 1 {
		t.Fatalf("fail_ratio = %v, want in (0, 1]", fr)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending, so the helper must sort
		}
		return out
	}
	if _, ok := tailPercentile(xs(999), 0.99); ok {
		t.Error("p99 of 999 samples reported; only 9 lie beyond it")
	}
	v, ok := tailPercentile(xs(1000), 0.99)
	if !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if v, ok := tailPercentile(xs(20), 0.5); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
	if _, ok := tailPercentile(xs(19), 0.5); ok {
		t.Error("p50 of 19 samples reported; only 9 lie beyond it")
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100},
		{id: 2, parent: 1, start: 10, end: 40},
		{id: 3, parent: 1, start: 30, end: 60},  // overlaps 2: 10..60 counts once
		{id: 4, parent: 1, start: 35, end: 45},  // inside 2 and 3
		{id: 5, parent: 1, start: 90, end: 120}, // clipped to the parent's end
		{id: 6, parent: 2, start: 15, end: 20},  // a grandchild is not a child
	}
	tree := newSpanTree(spans)
	if got := tree.selfTime(spans[0]); got != 100-50-10 {
		t.Errorf("self time = %d, want 40", got)
	}
	if got := tree.selfTime(spans[1]); got != 30-5 {
		t.Errorf("child self time = %d, want 25", got)
	}
	if got := len(tree.descendants(spans[0])); got != 5 {
		t.Errorf("%d descendants, want 5", got)
	}
	if got := covered(0, 10, nil); got != 0 {
		t.Errorf("covered by nothing = %d", got)
	}
	if got := covered(0, 100, []interval{{0, 10}, {10, 20}}); got != 20 {
		t.Errorf("adjacent intervals cover %d, want 20", got)
	}
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	f := loadBenchmarkJSON(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("workloads %v, harness runs %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("workloads %v, harness runs %v", names, want)
		}
	}
	checkMetrics(t, "end-to-end", f.EndToEnd, endToEnd, true)
	checkMetrics(t, "per-layer", f.PerLayer, perLayer, false)
}

// checkMetrics reports every difference between the metrics
// BENCHMARK.json declares and the ones the harness prints.
func checkMetrics(t *testing.T, kind string, declared []benchMetric, printed []layerMetric, bounded bool) {
	t.Helper()
	units := map[string]string{}
	for _, m := range printed {
		units[m.name] = m.unit
	}
	seen := map[string]bool{}
	for _, m := range declared {
		unit, ok := units[m.Name]
		switch {
		case !ok:
			t.Errorf("%s %s is declared but not printed", kind, m.Name)
		case seen[m.Name]:
			t.Errorf("%s %s is declared twice", kind, m.Name)
		case unit != m.Unit:
			t.Errorf("%s %s: declared in %q, printed in %q", kind, m.Name, m.Unit, unit)
		case bounded != (m.Bound != nil):
			t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
		case bounded && (*m.Bound <= 0 || *m.Bound > 0.25):
			t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, m.Name, *m.Bound)
		}
		seen[m.Name] = true
	}
	for _, m := range printed {
		if !seen[m.name] {
			t.Errorf("%s %s is printed but not declared", kind, m.name)
		}
	}
}
