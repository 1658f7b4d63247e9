package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	wwbmetrics "wwb/internal/metrics"
)

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMiB reads VmHWM, the resident-set high-water mark, from
// /proc/self/status.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// rt is a point-in-time reading of the Go runtime counters the harness
// reports per layer.
type rt struct {
	allocBytes float64 // cumulative heap allocations
	gcCycles   float64
	gcCPU      float64 // cumulative GC CPU seconds (runtime estimate)
	busyCPU    float64 // cumulative non-idle CPU seconds (runtime estimate)
	pauseNs    float64 // cumulative stop-the-world GC pause
}

var rtSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRT() rt {
	s := make([]metrics.Sample, len(rtSamples))
	for i, name := range rtSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rt{
		allocBytes: val(0),
		gcCycles:   val(1),
		gcCPU:      val(2),
		busyCPU:    val(3) - val(4),
		pauseNs:    float64(ms.PauseTotalNs),
	}
}

// liveHeapMiB forces a collection and returns the bytes in live heap
// objects.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// heapAllocs returns the cumulative bytes allocated on the heap.
func heapAllocs() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// promSnapshot reads every series of the program's metrics registry,
// keyed by series name with labels, e.g.
// wwb_stage_seconds_total{stage="chrome.assemble"}.
func promSnapshot() map[string]float64 {
	var buf bytes.Buffer
	if err := wwbmetrics.Default.WritePrometheus(&buf); err != nil {
		return nil
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// promDelta returns after-before for one series.
func promDelta(before, after map[string]float64, series string) float64 {
	return after[series] - before[series]
}

// stageSeries names one wwb_stage_seconds_total series.
func stageSeries(stage string) string {
	return `wwb_stage_seconds_total{stage="` + stage + `"}`
}

// provenance identifies what was measured, where and how.
type provenance struct {
	GitRevision  string   `json:"git_revision"`
	SourceSHA256 string   `json:"source_sha256"`
	GoVersion    string   `json:"go_version"`
	GOOS         string   `json:"goos"`
	GOARCH       string   `json:"goarch"`
	CPUModel     string   `json:"cpu_model"`
	NProc        int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	WorldSeed    uint64   `json:"world_seed"`
	QuerySeed    uint64   `json:"query_seed"`
	Workload     string   `json:"workload"`
	Args         []string `json:"args"`
	Traced       bool     `json:"traced"`
	Note         string   `json:"note"`
}

func collectProvenance(root string, cfg config) provenance {
	return provenance{
		GitRevision:  gitRevision(root),
		SourceSHA256: sourceDigest(root),
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		WorldSeed:    cfg.worldSeed,
		QuerySeed:    cfg.seed,
		Workload:     cfg.workload,
		Args:         os.Args[1:],
		Traced:       cfg.trace,
		Note: fmt.Sprintf("%d CPUs: assembly, analysis and fan-out workers share them with the load clients, "+
			"so a Workers>1 or multi-client figure measures scheduling on %d cores, not more parallel hardware",
			runtime.NumCPU(), runtime.NumCPU()),
	}
}

// gitRevision resolves HEAD from the .git directory without running
// git; checkouts without one report "none".
func gitRevision(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every .go file of the program under
// test (the benchmark's own directory excluded), so runs from checkouts
// without git history still name the code they measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "wwbbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if rel == "go.mod" || strings.HasSuffix(rel, ".go") {
			files = append(files, rel)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, rel := range files {
		b, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
