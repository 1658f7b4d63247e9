package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"wwb/internal/chrome"
	"wwb/internal/fleet"
	"wwb/internal/psl"
	"wwb/internal/telemetry"
	"wwb/internal/world"
)

// equivPaths is the /v1 query surface compared between serving modes.
var equivPaths = []string{
	"/v1/countries",
	"/v1/list?country=US&n=100",
	"/v1/list?country=US&platform=android&metric=time&n=50",
	"/v1/list?country=KR&platform=windows&metric=loads&n=25",
	"/v1/dist?platform=windows&metric=loads&n=100",
	"/v1/dist?platform=android&metric=time&n=10",
	"/v1/site?domain=google.com",
	"/v1/site?domain=naver.com&platform=android&metric=time",
	"/v1/crux?country=US",
	"/v1/crux",
}

// loadSnapshotFile writes ds as a .wwb snapshot file with a fixed
// provenance and loads it back through the -data loader.
func loadSnapshotFile(t *testing.T, ds *chrome.Dataset) (*chrome.Dataset, *chrome.SnapshotInfo) {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.EncodeSnapshot(&buf, chrome.SnapshotProvenance{Tool: "test"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "study.wwb")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, info, err := decodeDataFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return snap, info
}

func fetch(t *testing.T, base, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestSnapshotServedResponsesByteIdentical is the serving-path half of
// the snapshot acceptance bar: every /v1/* response served from a
// decoded .wwb snapshot must equal the in-memory dataset byte for
// byte. The in-memory side is assembled under GOMAXPROCS=8 while the
// snapshotted side was assembled under GOMAXPROCS=1, so the test also
// pins worker-count independence end to end.
func TestSnapshotServedResponsesByteIdentical(t *testing.T) {
	w := testStudyForDataset.World
	opts := testStudyForDataset.Dataset.Opts
	assemble := func(procs int) *chrome.Dataset {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return chrome.Assemble(w, telemetry.DefaultConfig(), opts)
	}
	ds1 := assemble(1)
	ds8 := assemble(8)

	snap, info := loadSnapshotFile(t, ds1)
	if info.Format != chrome.FormatWWB {
		t.Fatalf("format = %q, want wwb", info.Format)
	}

	memSrv := httptest.NewServer(newDatasetServer(ds8, fleet.Assignment{}).Routes(fleet.MiddlewareConfig{}))
	defer memSrv.Close()
	snapSrv := httptest.NewServer(newDatasetServer(snap, fleet.Assignment{}).Routes(fleet.MiddlewareConfig{}))
	defer snapSrv.Close()

	for _, path := range equivPaths {
		memStatus, memBody := fetch(t, memSrv.URL, path)
		snapStatus, snapBody := fetch(t, snapSrv.URL, path)
		if memStatus != snapStatus {
			t.Errorf("%s: status %d (memory) vs %d (snapshot)", path, memStatus, snapStatus)
			continue
		}
		if !bytes.Equal(memBody, snapBody) {
			t.Errorf("%s: response bodies differ (%d vs %d bytes)", path, len(memBody), len(snapBody))
		}
	}
}

// TestSnapshotModeSiteLookupUsesRestoredIndex: /v1/site resolves ranks
// through the KeyIndex; served from a snapshot the index is restored,
// not rebuilt, and must give the same answer.
func TestSnapshotModeSiteLookupUsesRestoredIndex(t *testing.T) {
	ds := testStudyDataset()
	snap, _ := loadSnapshotFile(t, ds)
	ix, want := snap.Index(), ds.Index()
	if ix.NumKeys() != want.NumKeys() {
		t.Fatalf("restored universe %d keys, want %d", ix.NumKeys(), want.NumKeys())
	}
	key := psl.Default.SiteKey("google.us")
	id, ok := want.ID(key)
	rid, rok := ix.ID(key)
	if !ok || ok != rok || id != rid {
		t.Fatalf("ID(%q) = (%d,%v) restored (%d,%v)", key, id, ok, rid, rok)
	}
	for _, c := range []string{"US", "KR", "BO"} {
		a := want.Rank(c, world.Windows, world.PageLoads, world.Feb2022, id)
		b := ix.Rank(c, world.Windows, world.PageLoads, world.Feb2022, rid)
		if a != b {
			t.Errorf("%s: rank %d, restored %d", c, a, b)
		}
	}
}
