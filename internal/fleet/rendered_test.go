package fleet

// Tests for the pre-rendered responses: /v1/crux, default-n /v1/dist,
// /v1/countries and /v1/experiments are rendered once (per epoch or per
// process) and must stay byte-identical — body and X-Wwb-Checksum — to
// the per-request encoding they replaced, which the references below
// keep.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wwb/internal/chrome"
	"wwb/internal/crux"
	"wwb/internal/experiments"
	"wwb/internal/telemetry"
	"wwb/internal/world"
)

// encodeRef encodes v the way every handler did per request before the
// bodies were rendered once.
func encodeRef(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referenceBodies maps request paths to the bodies the per-request
// path produced for ds: every crux scope, every (platform, metric)
// dist at the default n, ?n=1000 and a non-default n, and the two
// static catalogues.
func referenceBodies(t *testing.T, ds *chrome.Dataset) map[string][]byte {
	t.Helper()
	month := ds.Opts.DistMonth
	recs := crux.Export(ds, month)
	ref := map[string][]byte{
		"/v1/crux": encodeRef(t, crux.Filter(recs, "")),
	}
	for _, c := range world.Countries() {
		ref["/v1/crux?country="+c.Code] = encodeRef(t, crux.Filter(recs, c.Code))
	}
	for _, p := range world.Platforms {
		for _, m := range world.Metrics {
			curve := ds.Dist(p, m)
			if curve == nil {
				t.Fatalf("no %s/%s curve", p, m)
			}
			q := "/v1/dist?platform=" + PlatformParam(p) + "&metric=" + MetricParam(m)
			for _, n := range []int{0, 1000, 7} {
				path, depth := q, 1000
				if n > 0 {
					path, depth = q+"&n="+strconv.Itoa(n), n
				}
				depth = min(depth, curve.Len())
				ref[path] = encodeRef(t, map[string]any{
					"sites":  curve.Len(),
					"shares": curve.Shares[:depth],
					"cum10":  curve.CumShare(10),
					"cum100": curve.CumShare(100),
					"cum10k": curve.CumShare(10000),
					"for25":  curve.SitesForShare(0.25),
					"for50":  curve.SitesForShare(0.50),
				})
			}
		}
	}
	type country struct {
		Code      string `json:"code"`
		Name      string `json:"name"`
		Continent string `json:"continent"`
	}
	var countries []country
	for _, c := range world.Countries() {
		countries = append(countries, country{Code: c.Code, Name: c.Name, Continent: c.Continent})
	}
	ref["/v1/countries"] = encodeRef(t, countries)
	type exp struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	var exps []exp
	for _, id := range experiments.IDs() {
		e, _ := experiments.Lookup(id)
		exps = append(exps, exp{ID: e.ID, Title: e.Title})
	}
	ref["/v1/experiments"] = encodeRef(t, exps)
	return ref
}

// checkAgainst requires every reference path to answer 200 on h with
// the reference body, its checksum and the JSON content type.
func checkAgainst(t *testing.T, what string, h http.Handler, ref map[string][]byte) {
	t.Helper()
	for path, want := range ref {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", what, path, rec.Code, rec.Body)
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("%s %s: body differs from the per-request encoding\n got %.200s\nwant %.200s", what, path, got, want)
		}
		if got, want := rec.Header().Get(ChecksumHeader), BodyChecksum(want); got != want {
			t.Fatalf("%s %s: checksum %s, want %s", what, path, got, want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s %s: content type %q", what, path, ct)
		}
	}
}

// appendLink appends month onto the dataset behind basePath and writes
// the delta, bound to basePath, as name under dir.
func appendLink(t *testing.T, dir, basePath, name string, month world.Month) string {
	t.Helper()
	ds, info, err := chrome.DecodeAnyPath(basePath)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := chrome.AppendMonthCtx(context.Background(), ds, fleetWorld, telemetry.DefaultConfig(),
		chrome.AppendOptions{Month: month, RollDist: true})
	if err != nil {
		t.Fatal(err)
	}
	baseData, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = chrome.EncodeDelta(&buf, inc, chrome.DeltaBase{
		Name:       filepath.Base(basePath),
		Size:       uint64(len(baseData)),
		CRC:        chrome.SnapshotFileCRC(baseData),
		Provenance: info.Provenance,
	}, rollProv)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRenderedBodiesMatchPerRequestEncoding: on a fresh server, on a
// 2-shard router (whose crux bodies are the shards' own, rendered when
// they built the epoch), and after a swap onto a 2-link .wwbd chain,
// every rendered response is byte-identical to the per-request
// encoding, and the swapped epoch serves exactly what a fresh server
// over the full rebuild serves.
func TestRenderedBodiesMatchPerRequestEncoding(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())

	loader := func(path string) (*chrome.Dataset, error) {
		ds, _, err := chrome.DecodeAnyPath(path)
		return ds, err
	}
	srv := NewServer(fleetDS, ServerConfig{Month: fleetDS.Opts.DistMonth, LoadSnapshot: loader})
	h := srv.Routes(MiddlewareConfig{})
	refA := referenceBodies(t, fleetDS)
	// Twice: the first pass renders the crux export, the second serves
	// what was stored.
	checkAgainst(t, "fresh server", h, refA)
	checkAgainst(t, "fresh server (warm)", h, refA)

	router := startRouter(t, startShards(t, fleetDS, 2, testLoader))
	for path, want := range refA {
		if _, _, got := fetch(t, router.URL, path); !bytes.Equal(got, want) {
			t.Fatalf("router %s: body differs from the per-request encoding", path)
		}
	}

	dir := t.TempDir()
	base := writeSnapshotProv(t, dir, "base.wwb", fleetDS, rollProv)
	mar := appendLink(t, dir, base, "delta-mar.wwbd", world.Mar2022)
	apr := appendLink(t, dir, mar, "delta-apr.wwbd", world.Apr2022)
	if _, info, err := chrome.DecodeAnyPath(apr); err != nil || info.Chain != 2 {
		t.Fatalf("chain decoded as %+v (err %v), want 2 links", info, err)
	}
	if _, err := srv.SwapTo(apr, 0); err != nil {
		t.Fatal(err)
	}

	opts := fleetOpts
	opts.Months = []world.Month{world.Jan2022, world.Feb2022, world.Mar2022, world.Apr2022}
	opts.DistMonth = world.Apr2022
	rebuild := chrome.Assemble(fleetWorld, telemetry.DefaultConfig(), opts)
	refB := referenceBodies(t, rebuild)
	if bytes.Equal(refA["/v1/crux"], refB["/v1/crux"]) {
		t.Fatal("crux identical across the swap; a stale epoch would be invisible")
	}
	checkAgainst(t, "swapped server", h, refB)
	checkAgainst(t, "rebuild server",
		NewServer(rebuild, ServerConfig{Month: rebuild.Opts.DistMonth}).Routes(MiddlewareConfig{}), refB)
}

// TestCruxRendersOnceUnderConcurrentFirstRequests: concurrent first
// /v1/crux requests of one epoch, for one scope or several, run the
// export and render exactly once on a server. Through a router, the
// shard servers run none: they rendered their scopes when they built
// the epoch.
func TestCruxRendersOnceUnderConcurrentFirstRequests(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())

	paths := []string{"/v1/crux?country=US", "/v1/crux?country=US", "/v1/crux", "/v1/crux?country=JP"}
	race := func(get func(path string) int) {
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(path string) {
				defer wg.Done()
				if status := get(path); status != http.StatusOK {
					t.Errorf("%s: status %d", path, status)
				}
			}(paths[i%len(paths)])
		}
		wg.Wait()
	}

	srv := NewServer(fleetDS, ServerConfig{Month: fleetDS.Opts.DistMonth})
	var exports atomic.Int32
	srv.SetCruxExport(func(ds *chrome.Dataset, m world.Month) []crux.Record {
		exports.Add(1)
		time.Sleep(20 * time.Millisecond) // hold the window open for the racers
		return crux.Export(ds, m)
	})
	h := srv.Routes(MiddlewareConfig{})
	race(func(path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	})
	if n := exports.Load(); n != 1 {
		t.Fatalf("server export ran %d times for one epoch, want 1", n)
	}

	var shardExports atomic.Int32
	var groups [][]string
	for i := 0; i < 2; i++ {
		shard := NewServer(fleetDS, ServerConfig{Shard: Assignment{Index: i, Count: 2}, Month: fleetDS.Opts.DistMonth})
		shard.SetCruxExport(func(ds *chrome.Dataset, m world.Month) []crux.Record {
			shardExports.Add(1)
			return crux.Export(ds, m)
		})
		ts := httptest.NewServer(shard.Routes(MiddlewareConfig{}))
		t.Cleanup(ts.Close)
		groups = append(groups, []string{ts.URL})
	}
	router := startRouter(t, groups)
	race(func(path string) int {
		resp, err := http.Get(router.URL + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	})
	if n := shardExports.Load(); n != 0 {
		t.Fatalf("shard servers ran the export %d times at request time, want 0", n)
	}
}

// TestHostileDistNLeavesEpochUnchanged: 1,000 distinct ?n= values are
// encoded per request and leave the epoch's stored bodies untouched.
func TestHostileDistNLeavesEpochUnchanged(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())

	srv := NewServer(fleetDS, ServerConfig{Month: fleetDS.Opts.DistMonth})
	h := srv.Routes(MiddlewareConfig{})
	get := func(path string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		return rec.Body.Bytes()
	}
	get("/v1/crux")
	st := srv.state()
	dist := make(map[distKey]*rendered, len(st.dist))
	for k, v := range st.dist {
		dist[k] = v
	}
	stored := func() (int, *cruxBodies) {
		st.cruxMu.Lock()
		defer st.cruxMu.Unlock()
		return len(st.dist), st.crux
	}
	wantLen, wantCrux := stored()
	defaultBody := append([]byte(nil), get("/v1/dist")...)

	for n := 1; n <= 1001; n++ {
		if n != defaultDistN {
			get(fmt.Sprintf("/v1/dist?platform=android&metric=time&n=%d", n))
		}
	}
	if gotLen, gotCrux := stored(); gotLen != wantLen || gotCrux != wantCrux {
		t.Fatalf("stored bodies changed: %d dist (want %d), crux %p (want %p)", gotLen, wantLen, gotCrux, wantCrux)
	}
	for k, v := range st.dist {
		if dist[k] != v {
			t.Fatalf("dist body %v replaced", k)
		}
	}
	if srv.state() != st {
		t.Fatal("epoch changed under read-only traffic")
	}
	if !bytes.Equal(get("/v1/dist"), defaultBody) {
		t.Fatal("default dist body changed")
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so a request's
// allocations are the server's own.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestWarmCruxRequestAllocs: a warmed /v1/crux request allocates a
// fixed handful of objects — the middleware's and the mux's —
// and no bytes in proportion to the body: the export is neither
// filtered, encoded, buffered nor hashed per request.
func TestWarmCruxRequestAllocs(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())

	h := NewServer(fleetDS, ServerConfig{Month: fleetDS.Opts.DistMonth}).Routes(MiddlewareConfig{})
	req := httptest.NewRequest(http.MethodGet, "/v1/crux", nil)
	w := &discardWriter{h: http.Header{}}
	serve := func() { h.ServeHTTP(w, req) }
	serve() // render

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/crux", nil))
	body := rec.Body.Bytes()
	allocs := testing.AllocsPerRun(200, serve)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 200
	for i := 0; i < runs; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	perReq := float64(after.TotalAlloc-before.TotalAlloc) / runs

	t.Logf("warm /v1/crux: %.0f allocs, %.0f B per request (body %d B)", allocs, perReq, len(body))
	// 21 allocs when written; the per-request encode path took 40.
	const maxAllocs = 30
	if allocs > maxAllocs {
		t.Errorf("warm /v1/crux: %.0f allocs per request, want at most %d", allocs, maxAllocs)
	}
	if perReq > float64(len(body))/8 {
		t.Errorf("warm /v1/crux: %.0f B allocated per request for a %d B body; the body is being rebuilt", perReq, len(body))
	}
}
