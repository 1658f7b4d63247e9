package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"

	"wwb/internal/chrome"
	"wwb/internal/world"
)

// cruxPaths is every /v1/crux scope: global, then each world country.
func cruxPaths() []string {
	paths := []string{"/v1/crux"}
	for _, c := range world.Countries() {
		paths = append(paths, "/v1/crux?country="+c.Code)
	}
	return paths
}

// serveLocal answers one GET on h in-process.
func serveLocal(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// checkShardCrux holds one shard server's /v1/crux to an unsharded
// server over the same whole dataset: the global scope and every owned
// country byte-identical, every unowned country a 404 JSON envelope.
func checkShardCrux(t *testing.T, what string, asn Assignment, month world.Month, shard, single http.Handler) {
	t.Helper()
	owned := 0
	for _, path := range cruxPaths() {
		got := serveLocal(shard, path)
		country := path[len("/v1/crux"):]
		if country != "" {
			country = country[len("?country="):]
		}
		if country != "" && !asn.Owns(country, month) {
			var env struct {
				Error string `json:"error"`
			}
			if got.Code != http.StatusNotFound || json.Unmarshal(got.Body.Bytes(), &env) != nil || env.Error == "" {
				t.Fatalf("%s %s (unowned): status %d body %.120s, want a 404 JSON envelope", what, path, got.Code, got.Body)
			}
			continue
		}
		if country != "" {
			owned++
		}
		want := serveLocal(single, path)
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%s %s: status %d, %d B; single server: status %d, %d B",
				what, path, got.Code, got.Body.Len(), want.Code, want.Body.Len())
		}
		if got.Header().Get(ChecksumHeader) != want.Header().Get(ChecksumHeader) {
			t.Fatalf("%s %s: checksum differs from the single server's", what, path)
		}
	}
	if owned == 0 {
		t.Fatalf("%s owns no country at %s; the check proves nothing", what, month)
	}
}

// TestShardCruxScopesMatchSingleServer: a shard server renders the
// global /v1/crux scope and its owned countries from the whole dataset,
// byte-identical to an unsharded server, and refuses the countries it
// does not own with a 404 — at boot and after a swap onto a 2-link
// .wwbd chain. Through a router, after an out-of-band swap that moves
// the analysis month (and with it the countries' owners), every scope
// matches a single server over the new dataset. That swap goes to the
// chain's first link: February to March moves every owner of a 2-way
// split, whereas February to April moves none (FNV-1a's low bit is the
// parity of the bytes' low bits, and "2022-02" and "2022-04" agree).
func TestShardCruxScopesMatchSingleServer(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())

	dir := t.TempDir()
	base := writeSnapshotProv(t, dir, "base.wwb", fleetDS, rollProv)
	mar := appendLink(t, dir, base, "delta-mar.wwbd", world.Mar2022)
	apr := appendLink(t, dir, mar, "delta-apr.wwbd", world.Apr2022)
	single := func(path string) (*chrome.Dataset, http.Handler) {
		ds, _, err := chrome.DecodeAnyPath(path)
		if err != nil {
			t.Fatal(err)
		}
		return ds, NewServer(ds, ServerConfig{Month: ds.Opts.DistMonth}).Routes(MiddlewareConfig{})
	}
	singleA := NewServer(fleetDS, ServerConfig{Month: fleetDS.Opts.DistMonth}).Routes(MiddlewareConfig{})
	chained, singleB := single(apr)
	marDS, singleMar := single(mar)

	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			var groups [][]string
			for i := 0; i < n; i++ {
				asn := Assignment{Index: i, Count: n}
				srv := NewServer(fleetDS, ServerConfig{Shard: asn, Month: fleetDS.Opts.DistMonth, LoadSnapshot: fileLoader})
				h := srv.Routes(MiddlewareConfig{})
				checkShardCrux(t, fmt.Sprintf("shard %s at boot", asn), asn, fleetDS.Opts.DistMonth, h, singleA)
				if _, err := srv.SwapTo(apr, 0); err != nil {
					t.Fatal(err)
				}
				checkShardCrux(t, fmt.Sprintf("shard %s after the swap", asn), asn, chained.Opts.DistMonth, h, singleB)

				// A second fleet, still at boot, for the router half.
				fresh := NewServer(fleetDS, ServerConfig{Shard: asn, Month: fleetDS.Opts.DistMonth, LoadSnapshot: fileLoader})
				ts := httptest.NewServer(fresh.Routes(MiddlewareConfig{}))
				t.Cleanup(ts.Close)
				groups = append(groups, []string{ts.URL})
			}

			router := startRouter(t, groups)
			// Warm the router's fleet info at the boot month.
			for _, path := range cruxPaths() {
				if _, _, got := fetch(t, router.URL, path); !bytes.Equal(got, serveLocal(singleA, path).Body.Bytes()) {
					t.Fatalf("router %s before the swap: body differs from the single server's", path)
				}
			}
			// Swap every shard behind the router's back.
			for i, g := range groups {
				resp, err := http.Post(g[0]+"/admin/swap?data="+mar+"&epoch=2", "", nil)
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("out-of-band swap of shard %d: status %d", i, resp.StatusCode)
				}
			}
			// The first request after the swap finds the router's fleet
			// info stale: it must be a country whose owner moved, so that
			// only the epoch-changed re-route can answer it right.
			moved := ""
			for _, c := range world.Countries() {
				if ShardOf(c.Code, fleetDS.Opts.DistMonth, n) != ShardOf(c.Code, marDS.Opts.DistMonth, n) {
					moved = "/v1/crux?country=" + c.Code
					break
				}
			}
			if moved == "" {
				t.Fatal("no country changed owner with the analysis month")
			}
			for _, path := range append([]string{moved}, cruxPaths()...) {
				want := serveLocal(singleMar, path)
				status, _, got := fetch(t, router.URL, path)
				if status != want.Code || !bytes.Equal(got, want.Body.Bytes()) {
					t.Fatalf("router %s after the swap: status %d, %d B; single server over the new dataset: status %d, %d B",
						path, status, len(got), want.Code, want.Body.Len())
				}
			}
		})
	}
}
