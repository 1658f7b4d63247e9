package fleet

// Fleet-level tests for the incremental month roll-forward: a .wwbd
// delta swapped into a running fleet must leave every /v1 response
// byte-identical to a single unsharded server over a full rebuild of
// the extended window, and no cache in the serving path — the
// router's fleet-info cache, its crux export cache, the shards' per-
// epoch state — may keep answering from the superseded month.

import (
	"bytes"
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"wwb/internal/chrome"
	"wwb/internal/telemetry"
	"wwb/internal/world"
)

// rollProv is the provenance the roll-forward fixtures embed. The
// WorldSeed matters: the supervisor's provenance gate compares it.
var rollProv = chrome.SnapshotProvenance{Tool: "fleet-test", WorldSeed: world.SmallConfig().Seed, Scale: "small"}

// writeSnapshotProv encodes ds under dir with an explicit provenance.
func writeSnapshotProv(t *testing.T, dir, name string, ds *chrome.Dataset, prov chrome.SnapshotProvenance) string {
	t.Helper()
	path := filepath.Join(dir, name)
	var buf bytes.Buffer
	if err := ds.EncodeSnapshot(&buf, prov); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// buildDeltaArtifacts writes base.wwb plus a roll-dist March delta
// bound to it and returns (basePath, deltaPath, appended dataset).
// The appended dataset comes from re-decoding the base artifact, so
// the chain is exactly what a fleet operator would produce with
// `wwbgen -append 2022-03 -base base.wwb -roll-dist`. The append runs
// under GOMAXPROCS=procs (0 keeps the current setting).
func buildDeltaArtifacts(t *testing.T, dir string, procs int) (string, string, *chrome.Dataset) {
	t.Helper()
	basePath := writeSnapshotProv(t, dir, "base.wwb", fleetDS, rollProv)
	ds, info, err := chrome.DecodeAnyPath(basePath)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(procs)
	inc, err := chrome.AppendMonthCtx(context.Background(), ds, fleetWorld, telemetry.DefaultConfig(),
		chrome.AppendOptions{Month: world.Mar2022, RollDist: true})
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	baseData, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = chrome.EncodeDelta(&buf, inc, chrome.DeltaBase{
		Name:       "base.wwb",
		Size:       uint64(len(baseData)),
		CRC:        chrome.SnapshotFileCRC(baseData),
		Provenance: info.Provenance,
	}, rollProv)
	if err != nil {
		t.Fatal(err)
	}
	deltaPath := filepath.Join(dir, "delta-mar.wwbd")
	if err := os.WriteFile(deltaPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return basePath, deltaPath, ds
}

// rolledOracle is the full rebuild the appended fleet must match:
// the same options over the explicit extended window with DistMonth
// rolled to March.
func rolledOracle() *chrome.Dataset {
	opts := fleetOpts
	opts.Months = []world.Month{world.Jan2022, world.Feb2022, world.Mar2022}
	opts.DistMonth = world.Mar2022
	return chrome.Assemble(fleetWorld, telemetry.DefaultConfig(), opts)
}

// TestFleetDeltaSwapByteEquivalence is the roll-forward acceptance
// test at the serving layer: boot a 2-shard fleet on the base
// snapshot, hot-swap it to the March delta through the router, and
// require every route of the full /v1 matrix — the appended month
// included — to answer with the exact bytes of a single unsharded
// server over a full rebuild of the extended window. The delta is
// also required to be byte-identical whether the append ran under
// GOMAXPROCS 1 or 8.
func TestFleetDeltaSwapByteEquivalence(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())

	dir := t.TempDir()
	_, deltaPath, _ := buildDeltaArtifacts(t, dir, 1)
	delta1, err := os.ReadFile(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	dir8 := t.TempDir()
	_, deltaPath8, _ := buildDeltaArtifacts(t, dir8, 8)
	delta8, err := os.ReadFile(deltaPath8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(delta1, delta8) {
		t.Fatal("delta bytes differ between GOMAXPROCS=1 and GOMAXPROCS=8")
	}

	oracleDS := rolledOracle()
	single := httptest.NewServer(
		NewServer(oracleDS, ServerConfig{Month: oracleDS.Opts.DistMonth}).Routes(MiddlewareConfig{}))
	defer single.Close()

	// The chain-resolved dataset must serve exactly like the rebuild —
	// and its snapshot re-encoding must be byte-identical too.
	chained, info, err := chrome.DecodeAnyPath(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Format != chrome.FormatWWBD || info.Chain != 1 {
		t.Fatalf("delta decoded as %+v, want wwbd chain 1", info)
	}
	var fromChain, fromRebuild bytes.Buffer
	if err := chained.EncodeSnapshot(&fromChain, rollProv); err != nil {
		t.Fatal(err)
	}
	if err := oracleDS.EncodeSnapshot(&fromRebuild, rollProv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromChain.Bytes(), fromRebuild.Bytes()) {
		t.Fatal("snapshot of the resolved delta chain differs from the full rebuild's")
	}

	// Live fleet: boot on the base epoch, warm the caches on the old
	// month, then roll the whole fleet to the delta through the router.
	groups := startShards(t, fleetDS, 2, fileLoader)
	router := startRouter(t, groups)
	if status, _, _ := fetch(t, router.URL, "/v1/crux"); status != http.StatusOK {
		t.Fatal("pre-swap crux failed")
	}
	if status, _, body := fetch(t, router.URL, "/v1/list?country="+fleetDS.Countries[0]+"&month=2022-03"); status != http.StatusNotFound {
		t.Fatalf("pre-swap March list: status %d (%s), want 404", status, body)
	}
	status, body := postSwap(t, router.URL, "data="+url.QueryEscape(deltaPath))
	if status != http.StatusOK || !strings.Contains(string(body), `"complete":true`) {
		t.Fatalf("fleet swap to delta: status %d (%s)", status, body)
	}

	paths := equivPaths(oracleDS)
	if len(paths) < 100 {
		t.Fatalf("only %d equivalence paths — matrix generation is broken", len(paths))
	}
	sawMarch := 0
	diffs := 0
	for _, path := range paths {
		if strings.Contains(path, "2022-03") {
			sawMarch++
		}
		wantStatus, wantCT, wantBody := fetch(t, single.URL, path)
		gotStatus, gotCT, gotBody := fetch(t, router.URL, path)
		if gotStatus != wantStatus {
			t.Errorf("%s: status %d, want %d", path, gotStatus, wantStatus)
			diffs++
		} else if gotCT != wantCT {
			t.Errorf("%s: content type %q, want %q", path, gotCT, wantCT)
			diffs++
		} else if !bytes.Equal(gotBody, wantBody) {
			t.Errorf("%s: body diverges\n rout: %.200s\n want: %.200s", path, gotBody, wantBody)
			diffs++
		}
		if diffs > 10 {
			t.Fatalf("more than 10 divergent paths; aborting the matrix")
		}
	}
	if sawMarch == 0 {
		t.Fatal("equivalence matrix never queried the appended month")
	}
}

// TestRouterCruxFreshAfterOutOfBandSwap is the regression test for the
// stale crux export: the router once kept its own /v1/crux export and
// judged it current against fleet info it had cached itself, so a swap
// performed behind the router's back (a supervisor posting /admin/swap
// straight to the replicas) left the old epoch's export serving. The
// router now keeps no export; /v1/crux must still follow the shards'
// epoch through an out-of-band swap and through the router's own.
func TestRouterCruxFreshAfterOutOfBandSwap(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())

	singleA := httptest.NewServer(
		NewServer(fleetDS, ServerConfig{Month: fleetDS.Opts.DistMonth}).Routes(MiddlewareConfig{}))
	defer singleA.Close()
	singleB := httptest.NewServer(
		NewServer(altDS, ServerConfig{Month: altDS.Opts.DistMonth}).Routes(MiddlewareConfig{}))
	defer singleB.Close()
	_, _, wantA := fetch(t, singleA.URL, "/v1/crux")
	_, _, wantB := fetch(t, singleB.URL, "/v1/crux")
	if bytes.Equal(wantA, wantB) {
		t.Fatal("crux oracles identical across datasets; staleness would be invisible")
	}

	groups := startShards(t, fleetDS, 2, testLoader)
	router := startRouter(t, groups)

	// Warm the router's fleet info on epoch 1.
	if _, _, got := fetch(t, router.URL, "/v1/crux"); !bytes.Equal(got, wantA) {
		t.Fatal("pre-swap crux differs from the epoch-1 oracle")
	}

	// Swap every shard out of band: straight to the replicas, the
	// router never sees a request.
	for i, g := range groups {
		resp, err := http.Post(g[0]+"/admin/swap?data=B.wwb&epoch=2", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("out-of-band swap of shard %d: status %d", i, resp.StatusCode)
		}
	}

	status, _, got := fetch(t, router.URL, "/v1/crux")
	if status != http.StatusOK {
		t.Fatalf("post-swap crux: status %d", status)
	}
	if bytes.Equal(got, wantA) {
		t.Fatal("router served the old epoch's crux export after an out-of-band swap")
	}
	if !bytes.Equal(got, wantB) {
		t.Fatalf("post-swap crux matches neither oracle: %.120s", got)
	}

	// And a swap through the router itself: back to A at a strictly
	// newer epoch.
	if status, body := postSwap(t, router.URL, "data=A.wwb"); status != http.StatusOK {
		t.Fatalf("router swap back: status %d (%s)", status, body)
	}
	if _, _, got := fetch(t, router.URL, "/v1/crux"); !bytes.Equal(got, wantA) {
		t.Fatal("router served a stale crux export after its own swap")
	}
}

// TestSupervisorDeltaSwap drives a supervised 2-shard fleet through a
// delta rollout: the gate resolves the .wwbd chain, the fleet
// converges on the appended month at a strictly newer epoch, and a
// valid snapshot of the wrong world lineage is refused by the
// provenance gate without being quarantined — it is someone's good
// artifact, just not this fleet's.
func TestSupervisorDeltaSwap(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())

	dir := t.TempDir()
	basePath, deltaPath, _ := buildDeltaArtifacts(t, dir, 0)
	wrongProv := rollProv
	wrongProv.WorldSeed++
	wrongPath := writeSnapshotProv(t, dir, "wrongworld.wwb", altDS, wrongProv)

	ff := &fakeFleet{t: t, shards: 2, procs: map[string]*fakeProc{}}
	sup, groups, _ := startSupervisedFleet(t, ff, 2, 1, basePath)

	out, err := sup.Swap(context.Background(), deltaPath)
	if err != nil {
		t.Fatalf("delta swap: %v", err)
	}
	if !out.Complete || out.Epoch != 2 {
		t.Fatalf("delta swap outcome %+v, want complete at epoch 2", out)
	}
	if sup.CurrentData() != deltaPath {
		t.Fatalf("current data %q, want %q", sup.CurrentData(), deltaPath)
	}
	// Every replica now serves the rolled-forward month.
	for _, g := range groups {
		for _, addr := range g {
			if e := epochOf(t, addr); e != 2 {
				t.Errorf("replica %s at epoch %d, want 2", addr, e)
			}
			resp, err := http.Get("http://" + addr + "/shard/info")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if !strings.Contains(string(body), `"month":"2022-03"`) {
				t.Errorf("replica %s shard info lacks the appended analysis month: %.200s", addr, body)
			}
		}
	}

	// Wrong lineage: valid file, wrong world — rejected, not
	// quarantined, fleet untouched.
	if _, err := sup.Swap(context.Background(), wrongPath); err == nil {
		t.Fatal("provenance gate accepted a snapshot of a different world")
	} else if !strings.Contains(err.Error(), "provenance gate") {
		t.Fatalf("wrong-lineage swap failed for the wrong reason: %v", err)
	}
	if _, err := os.Stat(wrongPath); err != nil {
		t.Errorf("wrong-lineage artifact was quarantined: %v", err)
	}
	if sup.CurrentData() != deltaPath {
		t.Errorf("current data moved to %q after a gated swap", sup.CurrentData())
	}
	for _, g := range groups {
		for _, addr := range g {
			if e := epochOf(t, addr); e != 2 {
				t.Errorf("replica %s moved to epoch %d during a gated swap", addr, e)
			}
		}
	}

	// A torn delta is corrupt, and corrupt artifacts do quarantine.
	deltaData, err := os.ReadFile(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.wwbd")
	if err := os.WriteFile(torn, deltaData[:len(deltaData)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = sup.Swap(context.Background(), torn)
	if err == nil {
		t.Fatal("torn delta passed the validation gate")
	}
	if out == nil || out.Quarantined != torn+".bad" {
		t.Fatalf("outcome %+v does not report the quarantined delta", out)
	}
}

// TestParseMonthExtendedWindow pins the parser half of the roll-
// forward: every extended month parses, and the error message names
// the full window.
func TestParseMonthExtendedWindow(t *testing.T) {
	for _, m := range world.ExtendedMonths {
		got, err := ParseMonth(m.String(), 0)
		if err != nil || got != m {
			t.Errorf("ParseMonth(%q) = %v, %v", m.String(), got, err)
		}
	}
	if m, err := ParseMonth("", world.Mar2022); err != nil || m != world.Mar2022 {
		t.Errorf("empty month: %v, %v", m, err)
	}
	if _, err := ParseMonth("2020-01", 0); err == nil || !strings.Contains(err.Error(), "2022-08") {
		t.Errorf("out-of-window month error %v does not name the extended window", err)
	}
}
