package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"wwb/internal/chrome"
	"wwb/internal/core"
	"wwb/internal/experiments"
	"wwb/internal/fleet"
	"wwb/internal/telemetry"
	"wwb/internal/world"
)

// runSystem runs the whole system in one process: generate the world
// (set-up), build and write the snapshot, roll the dataset forward a
// month at a time, run the paper's study, cold-start a server from the
// snapshot, then serve the wwbload mix through one server or, with
// fanout, through a router to a 2×1 fleet. The batch phases are the
// same in both workloads; only the serving topology differs. Phases run
// one after another, so none is timed while another competes for the
// cores.
func runSystem(cfg config, rep *report, fanout bool) error {
	tr := newTracer(cfg.trace)
	start := time.Now()
	progress := func(phase string) {
		fmt.Fprintf(os.Stderr, "wwbbench: %6.1fs %s done\n", time.Since(start).Seconds(), phase)
	}
	wcfg, err := worldConfig(cfg)
	if err != nil {
		return err
	}
	// World generation is repeated so its median is steady; the last
	// world is the one the build and the roll use.
	var (
		w   *world.World
		gen []float64
	)
	for i := 0; i < setupReps; i++ {
		w = nil
		runtime.GC()
		gen = append(gen, tr.timed("world.generate", "", func() { w = world.Generate(wcfg) }).Seconds())
	}
	rep.layer["world.generate_s"] = median(gen)
	progress("set-up")

	ds, snap, err := buildPhase(cfg, w, tr, rep)
	if err != nil {
		return err
	}
	decoded, _, err := chrome.DecodeSnapshotBytes(snap.data)
	if rep.gate.errorf(err, "decoding the built snapshot") {
		checkSame(rep.gate, "snapshot", newDatasetServer(decoded, fleet.Assignment{}).Routes(fleet.MiddlewareConfig{}),
			newDatasetServer(ds, fleet.Assignment{}).Routes(fleet.MiddlewareConfig{}), fixedPaths(ds, ds.Opts.DistMonth, true))
	}
	decoded = nil
	progress("build")

	// The request sequence and its reference answers come from the
	// in-memory six-month dataset, before the roll appends to it.
	ld := newLoad(cfg, ds, rep.gate)
	progress("references")

	if err := roll(cfg, w, ds, snap, tr, rep); err != nil {
		return err
	}
	progress("roll")
	// The study builds its own world and dataset; dropping the build's
	// first keeps them out of the heap its collections trace.
	w, ds = nil, nil
	if err := study(wcfg, tr, rep); err != nil {
		return err
	}
	progress("study")

	loaded, err := coldStarts(cfg, snap.path, tr, rep)
	if err != nil {
		return err
	}
	progress("cold start")
	serveSetup, err := runServing(cfg, loaded, ld, fanout, tr, rep)
	if err != nil {
		return err
	}
	progress("serving")
	rep.e2e["setup_s"] = median(gen) + serveSetup
	rss, err := peakRSSMiB()
	rep.e2e["peak_rss_mib"] = rss
	return err
}

// buildPhase is what `wwbgen -format wwb` does: assemble all six study
// months, index, encode the snapshot and write it atomically. Each step
// starts after a forced collection, so garbage from the step before is
// not charged to it.
func buildPhase(cfg config, w *world.World, tr *tracer, rep *report) (*chrome.Dataset, *snapshotFile, error) {
	var (
		ds    *chrome.Dataset
		err   error
		wall  time.Duration
		cpu   float64
		buf   bytes.Buffer
		alloc float64
	)
	step := func(name string, fn func()) time.Duration {
		runtime.GC()
		cpu0, a0 := cpuSeconds(), heapAllocs()
		d := tr.timed(name, "", fn)
		wall += d
		cpu += cpuSeconds() - cpu0
		alloc = (heapAllocs() - a0) / (1 << 20)
		return d
	}
	before := promSnapshot()
	rep.layer["chrome.assemble_s"] = step("chrome.assemble", func() {
		ds, err = chrome.AssembleCtx(context.Background(), w, telemetry.DefaultConfig(), chrome.DefaultOptions())
	}).Seconds()
	rep.layer["alloc_mib.assemble"] = alloc
	if err != nil {
		return nil, nil, fmt.Errorf("assembling: %w", err)
	}
	after := promSnapshot()
	for _, stage := range []string{"select", "merge", "curves", "index"} {
		rep.layer["chrome.stream."+stage+"_s"] = promDelta(before, after, stageSeries("chrome.stream."+stage))
	}
	rep.layer["chrome.index_s"] = step("chrome.index", func() { ds.Index() }).Seconds()
	prov := provenanceOf(cfg)
	rep.layer["chrome.encode_s"] = step("chrome.encode", func() { err = ds.EncodeSnapshot(&buf, prov) }).Seconds()
	rep.layer["alloc_mib.encode"] = alloc
	if err != nil {
		return nil, nil, fmt.Errorf("encoding snapshot: %w", err)
	}
	snap := &snapshotFile{path: filepath.Join(cfg.work, "study.wwb"), data: buf.Bytes()}
	step("write", func() { err = writeFileAtomic(snap.path, snap.data) })
	rep.layer["build_s"] = wall.Seconds()
	rep.e2e["build_cpu_s"] = cpu
	rep.e2e["snapshot_mib"] = float64(len(snap.data)) / (1 << 20)
	return ds, snap, err
}

// study is what wwbstudy does: core.NewCtx, then every table and
// figure of the paper, each output's digest recorded.
func study(wcfg world.Config, tr *tracer, rep *report) error {
	runtime.GC()
	scfg := core.DefaultConfig()
	scfg.World = wcfg
	t0 := time.Now()
	before := promSnapshot()
	var (
		st  *core.Study
		err error
	)
	rep.layer["core.new_s"] = tr.timed("core.new", "", func() { st, err = core.NewCtx(context.Background(), scfg) }).Seconds()
	if err != nil {
		return fmt.Errorf("core.NewCtx: %w", err)
	}
	after := promSnapshot()
	rep.layer["catapi.validate_s"] = promDelta(before, after, stageSeries("catapi.validate"))
	rep.layer["catapi.verify_s"] = promDelta(before, after, stageSeries("catapi.verify"))
	runner := experiments.Runner{Study: st}
	for _, id := range paperIDs {
		var out string
		d := tr.timed("experiments", id, func() { out, err = runner.Run(id) })
		rep.layer["experiments."+id+"_s"] = d.Seconds()
		if rep.gate.errorf(err, "experiment %s", id) {
			sum := sha256.Sum256([]byte(out))
			rep.digest[id] = hex.EncodeToString(sum[:])
		}
	}
	rep.e2e["study_s"] = time.Since(t0).Seconds()
	return nil
}

// roll appends rollMonths months after the study window onto the built
// dataset, as `wwbgen -append` then a wwbfleet-gated swap would: append,
// encode the delta against the previous artifact, write it, validate the
// whole chain, and swap a server booted from the base onto it. After
// each month, outside the timing, the swapped server must serve the
// bytes of the in-memory dataset.
func roll(cfg config, w *world.World, ds *chrome.Dataset, snap *snapshotFile, tr *tracer, rep *report) error {
	base, _, err := chrome.DecodeSnapshotBytes(snap.data)
	if err != nil {
		return fmt.Errorf("decoding the roll's base: %w", err)
	}
	srv := newDatasetServer(base, fleet.Assignment{})
	base = nil
	prov := provenanceOf(cfg)
	prev := snap
	var rolls, sizes, appends, encodes, validates, swaps []float64
	for depth, m := 1, world.Feb2022+1; depth <= rollMonths; depth, m = depth+1, m+1 {
		var (
			inc  *chrome.Increment
			buf  bytes.Buffer
			info *chrome.SnapshotInfo
			wall time.Duration
		)
		// Each step starts after a forced collection, like the build's.
		step := func(name string, fn func()) float64 {
			runtime.GC()
			d := tr.timed(name, m.String(), fn)
			wall += d
			return ms(d)
		}
		appends = append(appends, step("chrome.append", func() {
			inc, err = chrome.AppendMonthCtx(context.Background(), ds, w, telemetry.DefaultConfig(), chrome.AppendOptions{Month: m})
		}))
		if err != nil {
			return fmt.Errorf("appending %s: %w", m, err)
		}
		encodes = append(encodes, step("chrome.delta_encode", func() {
			err = chrome.EncodeDelta(&buf, inc, chrome.DeltaBase{
				Name: filepath.Base(prev.path), Size: uint64(len(prev.data)),
				CRC: chrome.SnapshotFileCRC(prev.data), Provenance: prov,
			}, prov)
		}))
		if err != nil {
			return fmt.Errorf("encoding delta %s: %w", m, err)
		}
		next := &snapshotFile{path: filepath.Join(cfg.work, "study+"+m.String()+".wwbd"), data: buf.Bytes()}
		step("write", func() { err = writeFileAtomic(next.path, next.data) })
		if err != nil {
			return err
		}
		d := step("fleet.validate", func() { info, err = fleet.ValidateSnapshot(next.path) })
		validates = append(validates, d)
		rep.layer[fmt.Sprintf("fleet.validate_ms.depth%d", depth)] = d
		if !rep.gate.errorf(err, "validating %s", next.path) {
			break
		}
		rep.gate.check(info.Chain == depth, "delta chain at %s resolves %d links, want %d", m, info.Chain, depth)
		d = step("fleet.swap", func() { _, err = srv.SwapTo(next.path, 0) })
		swaps = append(swaps, d)
		rep.layer[fmt.Sprintf("fleet.swap_ms.depth%d", depth)] = d
		rolls = append(rolls, wall.Seconds())
		sizes = append(sizes, float64(len(next.data))/(1<<20))
		if !rep.gate.errorf(err, "swapping to %s", next.path) {
			break
		}
		checkSame(rep.gate, "delta chain "+m.String(), srv.Routes(fleet.MiddlewareConfig{}),
			newDatasetServer(ds, fleet.Assignment{}).Routes(fleet.MiddlewareConfig{}), fixedPaths(ds, m, depth == rollMonths))
		prev = next
	}
	if len(rolls) == 0 {
		return nil
	}
	rep.e2e["roll_s"] = median(rolls)
	rep.e2e["delta_mib"] = median(sizes)
	rep.layer["chrome.append_ms"] = median(appends)
	rep.layer["chrome.delta_encode_ms"] = median(encodes)
	rep.layer["fleet.validate_ms"] = median(validates)
	rep.layer["fleet.swap_ms"] = median(swaps)
	return nil
}

// coldStarts times read → decode → NewServer → first /v1/list 200,
// repeated with a forced collection before each, and returns the
// dataset the last repetition decoded: the one the serving phase loads.
func coldStarts(cfg config, path string, tr *tracer, rep *report) (*chrome.Dataset, error) {
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	var (
		total, decode, first, alloc []float64
		ds                          *chrome.Dataset
	)
	for i := 0; i < cfg.coldReps; i++ {
		ds = nil
		runtime.GC()
		cold := tr.start("cold_start", "", 0, int64(i))
		t0 := time.Now()
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		dsp := tr.start("chrome.decode", "", cold.ID(), int64(i))
		a0 := heapAllocs()
		td := time.Now()
		ds, _, err = chrome.DecodeSnapshotBytes(data)
		decode = append(decode, ms(time.Since(td)))
		alloc = append(alloc, (heapAllocs()-a0)/(1<<20))
		dsp.End()
		if !rep.gate.errorf(err, "cold start %d: decoding", i) {
			cold.End()
			continue
		}
		fq := tr.start("fleet.first_query", "", cold.ID(), int64(i))
		tf := time.Now()
		hs, err := startHTTP(newDatasetServer(ds, fleet.Assignment{}).Routes(serverMiddleware))
		if err != nil {
			return nil, err
		}
		q := fmt.Sprintf("/v1/list?country=%s&platform=windows&metric=loads&n=10", ds.Countries[0])
		resp, body, err := get(client, hs.url+q, nil)
		first = append(first, ms(time.Since(tf)))
		total = append(total, ms(time.Since(t0)))
		fq.End()
		cold.End()
		if err == nil {
			err = okResponse(resp, body)
		}
		rep.gate.errorf(err, "cold start %d: first query", i)
		if err := hs.stop(); err != nil {
			return nil, err
		}
		client.CloseIdleConnections()
	}
	if ds == nil {
		return nil, fmt.Errorf("no cold start decoded %s", path)
	}
	rep.e2e["cold_start_ms"] = median(total)
	rep.layer["chrome.decode_ms"] = median(decode)
	rep.layer["alloc_mib.decode"] = median(alloc)
	rep.layer["fleet.first_query_ms"] = median(first)
	return ds, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// okResponse reports a non-2xx status or a body that fails its
// X-Wwb-Checksum.
func okResponse(resp *http.Response, body []byte) error {
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return fleet.VerifyBody(resp.Header, body)
}
