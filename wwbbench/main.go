// Command wwbbench is the repository's benchmark. It composes the system
// in-process from the constructors the CLIs use, runs one workload,
// checks every output it sees, and prints one JSON result line.
//
//	bash wwbbench/run.sh --workload serve|fanout --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the workload's end-to-end metrics;
// with --trace 1 it carries the per-layer metrics, derived from spans
// the harness records around its calls into each layer. README.md in
// this directory describes the workloads, metrics and steadiness rules.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

type config struct {
	workload  string
	seed      uint64 // query-mix seed
	worldSeed uint64
	seconds   int
	trace     bool
	scale     string // "default" in runs; the self-tests use "small"
	root      string // checkout root, for provenance
	work      string // scratch directory for artifacts

	// coldReps is how many cold starts a run times.
	coldReps int
	// wrap, when set, wraps the handler clients talk to. Tests garble
	// responses with it.
	wrap func(http.Handler) http.Handler
}

// Request counts scale with --seconds; the same value always gives the
// same counts, so runs compare like with like. A latency block is at
// least 1000 requests, so its p99 has 10 samples beyond it.
func (c config) warmupRequests() int     { return 100 * c.seconds }
func (c config) latencyRequests() int    { return max(1000, 120*c.seconds) }
func (c config) throughputRequests() int { return max(200, 240*c.seconds) }

// rounds is how many latency and throughput blocks a serving run
// alternates.
const rounds = 5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the harness's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run measured.
type report struct {
	e2e    map[string]float64
	layer  map[string]float64
	digest map[string]string // SHA-256 of each experiment's output
	gate   *gate
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, digest: map[string]string{}, gate: &gate{}}
}

// gate counts operations and failures. A failure is a non-2xx
// response, a transport error, a checksum mismatch or a
// correctness-check mismatch; any failure fails the run.
type gate struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	first             []string
}

// check counts one operation and records it as failed unless ok.
func (g *gate) check(ok bool, format string, args ...any) bool {
	g.attempted.Add(1)
	if !ok {
		g.fail(format, args...)
	}
	return ok
}

// fail records a failure of an operation already counted.
func (g *gate) fail(format string, args ...any) {
	g.failed.Add(1)
	g.mu.Lock()
	if len(g.first) < 20 {
		g.first = append(g.first, fmt.Sprintf(format, args...))
	}
	g.mu.Unlock()
}

func (g *gate) errorf(err error, format string, args ...any) bool {
	if err != nil {
		return g.check(false, "%s: %v", fmt.Sprintf(format, args...), err)
	}
	return g.check(true, "")
}

var workloads = map[string]func(config, *report) error{
	"serve":  func(c config, r *report) error { return runSystem(c, r, false) },
	"fanout": func(c config, r *report) error { return runSystem(c, r, true) },
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: serve or fanout")
	flag.Uint64Var(&cfg.seed, "seed", 1, "query-mix seed; also the world seed unless -world-seed is set")
	flag.Uint64Var(&cfg.worldSeed, "world-seed", 0, "world generation seed (0: use -seed)")
	flag.IntVar(&cfg.seconds, "seconds", 10, "scales the fixed request counts of the serving phases")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.root, "root", ".", "repository root, for provenance")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for the run's scratch files")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "wwbbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = *trace == 1
	cfg.scale = "default"
	cfg.coldReps = 9
	if cfg.worldSeed == 0 {
		cfg.worldSeed = cfg.seed
	}

	res, prov, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wwbbench:", err)
		os.Exit(2)
	}
	for _, m := range prov {
		fmt.Println(m)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wwbbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and shapes its result. The returned lines
// (provenance and experiment digests, as JSON) precede the result line.
func execute(cfg config) (*result, []string, error) {
	rep, err := runWorkload(cfg)
	if err != nil {
		return nil, nil, err
	}
	for _, msg := range rep.gate.first {
		fmt.Fprintln(os.Stderr, "wwbbench: check failed:", msg)
	}
	res, err := shape(cfg.workload, cfg.trace, rep)
	if err != nil {
		return nil, nil, err
	}
	root, _ := filepath.Abs(cfg.root)
	provLine, _ := json.Marshal(map[string]any{"provenance": collectProvenance(root, cfg)})
	lines := []string{string(provLine)}
	if len(rep.digest) > 0 {
		d, _ := json.Marshal(map[string]any{"experiment_sha256": rep.digest})
		lines = append(lines, string(d))
	}
	return res, lines, nil
}

// runWorkload runs cfg's workload in a fresh scratch directory under
// cfg.work, removed when it returns.
func runWorkload(cfg config) (*report, error) {
	run, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown -workload %q (want serve or fanout)", cfg.workload)
	}
	if cfg.seconds < 1 {
		return nil, errors.New("-seconds must be at least 1")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.work = dir

	// The request log of every server and router goes to a writer that
	// drops it: the lines are still formatted, as in production, but the
	// run's stderr stays readable.
	prevOut := log.Writer()
	log.SetOutput(discardWriter{})
	defer log.SetOutput(prevOut)

	rep := newReport()
	if err := run(cfg, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// shape builds the result line of a finished run: its end-to-end
// metrics or, with trace, its per-layer ones.
func shape(workload string, trace bool, rep *report) (*result, error) {
	attempted, failed := rep.gate.attempted.Load(), rep.gate.failed.Load()
	if attempted == 0 {
		return nil, errors.New("no operation attempted")
	}
	rep.layer["fail_ratio"] = float64(failed) / float64(attempted)
	for _, m := range endToEnd {
		rep.layer["traced."+m.name] = rep.e2e[m.name]
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{rep.layer[m.name], m.unit}
		}
		return res, nil
	}
	for _, m := range endToEnd {
		v, ok := rep.e2e[m.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", workload, m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	return res, nil
}

// discardWriter drops what it is given. Unlike io.Discard, the log
// package does not recognise it, so log calls still format their lines.
type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// endToEnd lists the end-to-end metrics, which every workload measures.
// fail_ratio is per-layer: it is 0 on a correct run, and any failure
// fails the run anyway. build_s, serve_p50_ms and serve_p99_ms are
// per-layer too: on the 2-vCPU shared host they were measured on, a
// slow spell of the host lasting minutes moved their spread over ten
// runs past 0.25, the widest bound a metric may have (see README.md).
var endToEnd = []layerMetric{
	{"setup_s", "s"},
	{"build_cpu_s", "s"},
	{"snapshot_mib", "MiB"},
	{"cold_start_ms", "ms"},
	{"study_s", "s"},
	{"roll_s", "s"},
	{"delta_mib", "MiB"},
	{"peak_rss_mib", "MiB"},
	{"serve_rps", "1/s"},
	{"serve_heap_mib", "MiB"},
}

// routes are the client-facing routes of the query mix.
var routes = []string{"list", "site", "dist", "crux", "countries", "experiments"}

// paperIDs are the paper's 26 tables and figures: experiments.IDs()
// without the extensions and ablations registered beside them, which
// reproduce nothing from the paper and would multiply the study phase.
var paperIDs = []string{
	"fig1", "sec4.1", "fig2", "table4", "fig3", "fig14", "fig4", "fig15", "sec4.4", "fig5",
	"fig16", "sec4.5", "fig6", "fig7", "table2", "fig8", "fig9", "fig17", "fig10", "fig18",
	"fig19", "fig20", "fig11", "fig12", "fig13", "table3",
}

const (
	// setupReps is how often a run generates its world.
	setupReps = 3
	// rollMonths is how many months the roll phase appends. Validating
	// and swapping a delta chain decodes every link, so each month costs
	// more than the last; two keep the phase near 6 s at default scale.
	rollMonths = 2
)

type layerMetric struct{ name, unit string }

// perLayer lists every per-layer metric. Every workload prints all of
// them; a layer the workload does not exercise reads 0.
var perLayer = func() []layerMetric {
	m := []layerMetric{
		{"build_s", "s"},
		{"serve_p50_ms", "ms"},
		{"serve_p99_ms", "ms"},
		{"world.generate_s", "s"},
		{"chrome.assemble_s", "s"},
		{"chrome.stream.select_s", "s"},
		{"chrome.stream.merge_s", "s"},
		{"chrome.stream.curves_s", "s"},
		{"chrome.stream.index_s", "s"},
		{"alloc_mib.assemble", "MiB"},
		{"chrome.index_s", "s"},
		{"chrome.encode_s", "s"},
		{"alloc_mib.encode", "MiB"},
		{"chrome.decode_ms", "ms"},
		{"alloc_mib.decode", "MiB"},
		{"fleet.first_query_ms", "ms"},
		{"core.new_s", "s"},
		{"catapi.validate_s", "s"},
		{"catapi.verify_s", "s"},
	}
	for _, id := range paperIDs {
		m = append(m, layerMetric{"experiments." + id + "_s", "s"})
	}
	m = append(m,
		layerMetric{"chrome.append_ms", "ms"},
		layerMetric{"chrome.delta_encode_ms", "ms"},
		layerMetric{"fleet.validate_ms", "ms"},
		layerMetric{"fleet.swap_ms", "ms"},
	)
	for d := 1; d <= rollMonths; d++ {
		m = append(m,
			layerMetric{fmt.Sprintf("fleet.validate_ms.depth%d", d), "ms"},
			layerMetric{fmt.Sprintf("fleet.swap_ms.depth%d", d), "ms"})
	}
	for _, r := range routes {
		m = append(m,
			layerMetric{"client." + r + ".p50_ms", "ms"},
			layerMetric{"client." + r + ".time_share", "1"})
	}
	m = append(m,
		layerMetric{"http.loopback_ms", "ms"},
		layerMetric{"resp_kb_per_req", "KiB"})
	for _, r := range routes {
		m = append(m, layerMetric{"shard." + r + ".self_ms", "ms"})
	}
	m = append(m,
		layerMetric{"crux.export_ms", "ms"},
		layerMetric{"cpu_us_per_req", "us"},
		layerMetric{"alloc_kb_per_req", "KiB"},
		layerMetric{"gc.cpu_fraction", "1"},
		layerMetric{"gc.cycles", "count"},
		layerMetric{"gc.pause_ms", "ms"},
		layerMetric{"router.self_ms", "ms"},
		layerMetric{"router.subreq_ms", "ms"},
		layerMetric{"router.legs_per_req", "1"},
		layerMetric{"router.fanout_width", "count"},
		layerMetric{"router.hedges_per_kreq", "1/kreq"},
		layerMetric{"router.hedge_win_ratio", "1"},
		layerMetric{"router.retries", "count"},
		layerMetric{"router.integrity_failures", "count"},
		layerMetric{"router.epoch_skew_retries", "count"},
		layerMetric{"router.shed", "count"},
		layerMetric{"fail_ratio", "1"},
		layerMetric{"unattributed", "1"},
	)
	for _, e := range endToEnd {
		m = append(m, layerMetric{"traced." + e.name, e.unit})
	}
	return m
}()

// routeOf maps a request path to its route name.
func routeOf(path string) string {
	p, _, _ := strings.Cut(path, "?")
	return strings.TrimPrefix(p, "/v1/")
}
