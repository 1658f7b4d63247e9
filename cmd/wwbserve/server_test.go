package main

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wwb/internal/chrome"
	"wwb/internal/core"
	"wwb/internal/crux"
	"wwb/internal/fleet"
	"wwb/internal/world"
)

// testServer spins the handlers up once over a small February-only
// study; the study is shared with the dataset-only mode test.
var (
	testStudyForDataset = core.New(core.SmallConfig().FebOnly())
	testSrv             = httptest.NewServer(newServer(testStudyForDataset).Routes(fleet.MiddlewareConfig{}))
)

// prevWriter returns the process's default log destination for
// restoring after tests that silence or capture it.
func prevWriter() io.Writer { return logDefaultWriter }

var logDefaultWriter = log.Writer()

func get(t *testing.T, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(testSrv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestHealthz(t *testing.T) {
	resp, body := get(t, "/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz: %d %s", resp.StatusCode, body)
	}
}

func TestCountriesEndpoint(t *testing.T) {
	resp, body := get(t, "/v1/countries")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out []map[string]string
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 45 {
		t.Errorf("countries = %d", len(out))
	}
}

func TestListEndpoint(t *testing.T) {
	resp, body := get(t, "/v1/list?country=us&platform=windows&metric=loads&n=5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out []struct {
		Rank     int    `json:"rank"`
		Domain   string `json:"domain"`
		Category string `json:"category"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 || out[0].Domain != "google.us" || out[0].Rank != 1 {
		t.Errorf("unexpected list: %+v", out)
	}
	if out[0].Category != "Search Engines" {
		t.Errorf("google.us category = %q", out[0].Category)
	}
}

func TestListEndpointHugeNClamped(t *testing.T) {
	// ?n=1000000000 used to size the response slice straight from the
	// query value — a multi-GB allocation. It must now serve the whole
	// list and nothing more.
	resp, body := get(t, "/v1/list?country=US&platform=windows&metric=loads&n=1000000000")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out []struct {
		Rank int `json:"rank"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	want := len(testStudyForDataset.Dataset.List("US", world.Windows, world.PageLoads, testStudyForDataset.Month))
	if want > fleet.MaxListN {
		want = fleet.MaxListN
	}
	if len(out) != want {
		t.Errorf("entries = %d, want full list length %d", len(out), want)
	}
}

func TestListEndpointErrors(t *testing.T) {
	cases := []string{
		"/v1/list?country=XX",
		"/v1/list?country=US&platform=ios",
		"/v1/list?country=US&metric=clicks",
		"/v1/list?country=US&n=-1",
		"/v1/list?country=US&month=2020-01",
	}
	for _, path := range cases {
		resp, _ := get(t, path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestDistEndpoint(t *testing.T) {
	resp, body := get(t, "/v1/dist?platform=windows&metric=loads&n=10")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Sites  int       `json:"sites"`
		Shares []float64 `json:"shares"`
		For25  int       `json:"for25"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Sites < 1000 || len(out.Shares) != 10 || out.For25 < 1 {
		t.Errorf("dist response: %+v", out)
	}
}

func TestSiteEndpoint(t *testing.T) {
	resp, body := get(t, "/v1/site?domain=google.com")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Key        string  `json:"key"`
		Countries  int     `json:"countries"`
		Endemicity float64 `json:"endemicity"`
		Shape      string  `json:"shape"`
		BestRank   int     `json:"bestRank"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Key != "google" || out.Countries != 45 || out.BestRank != 1 {
		t.Errorf("site response: %+v", out)
	}
	if out.Shape != "global-flat" {
		t.Errorf("google shape = %q", out.Shape)
	}
	resp, _ = get(t, "/v1/site")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing domain: status %d", resp.StatusCode)
	}
}

func TestSiteEndpointHonoursParams(t *testing.T) {
	// /v1/site used to hard-code Windows/PageLoads and silently ignore
	// the platform/metric/month params every other endpoint honours.
	resp, body := get(t, "/v1/site?domain=google.com&platform=android&metric=time")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Platform string `json:"platform"`
		Metric   string `json:"metric"`
		Month    string `json:"month"`
		Ranks    map[string]int
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Platform != "android" || out.Metric != "time" {
		t.Errorf("echoed platform/metric = %q/%q, want android/time", out.Platform, out.Metric)
	}
	if out.Month != testStudyForDataset.Month.String() {
		t.Errorf("default month = %q, want %q", out.Month, testStudyForDataset.Month)
	}
	// The ranks must come from the requested cell, not the hard-coded
	// one: spot-check one country against the dataset directly.
	list := testStudyForDataset.Dataset.List("US", world.Android, world.TimeOnPage, testStudyForDataset.Month)
	if want := list.Rank("google.us"); want > 0 && out.Ranks["US"] != want {
		t.Errorf("US android/time rank = %d, want %d", out.Ranks["US"], want)
	}

	for _, path := range []string{
		"/v1/site?domain=google.com&platform=ios",
		"/v1/site?domain=google.com&metric=clicks",
		"/v1/site?domain=google.com&month=2020-01",
	} {
		resp, _ := get(t, path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestCruxRecoversFromFailedFirstExport(t *testing.T) {
	// The old sync.Once lazy init cached a panicking first attempt
	// forever; a single chaos-induced failure poisoned the endpoint
	// for the life of the process. Now the failure is reported and the
	// next request retries.
	srv := newServer(testStudyForDataset)
	calls := 0
	srv.SetCruxExport(func(ds *chrome.Dataset, m world.Month) []crux.Record {
		calls++
		if calls == 1 {
			panic("chaos: injected export failure")
		}
		return crux.Export(ds, m)
	})
	ts := httptest.NewServer(srv.Routes(fleet.MiddlewareConfig{}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/crux?country=US")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("first request: status %d, want 500", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/crux?country=US")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second request: status %d, want 200 (body %s)", resp.StatusCode, body)
	}
	var recs []crux.Record
	if err := json.Unmarshal(body, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Error("second request returned no records")
	}
	if calls != 2 {
		t.Errorf("export calls = %d, want 2 (one failure, one success)", calls)
	}

	// A third request must hit the cache, not recompute.
	resp, _ = http.Get(ts.URL + "/v1/crux?country=US")
	resp.Body.Close()
	if calls != 2 {
		t.Errorf("export calls after cache hit = %d, want 2", calls)
	}
}

func TestCruxEndpoint(t *testing.T) {
	resp, body := get(t, "/v1/crux?country=KR")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out []struct {
		Domain string `json:"domain"`
		Bucket int    `json:"bucket"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no crux records")
	}
	hasNaver := false
	for _, r := range out {
		if r.Domain == "naver.com" && r.Bucket == 1000 {
			hasNaver = true
		}
	}
	if !hasNaver {
		t.Error("naver.com should be a KR top-1K bucket record")
	}
}

func TestExperimentEndpoints(t *testing.T) {
	resp, body := get(t, "/v1/experiments")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out []struct{ ID string }
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) < 20 {
		t.Errorf("experiments = %d", len(out))
	}

	resp, body = get(t, "/v1/experiment/fig1")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "Figure 1") {
		t.Errorf("fig1: %d %s", resp.StatusCode, body[:min(len(body), 100)])
	}
	resp, _ = get(t, "/v1/experiment/fig99")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown experiment: status %d", resp.StatusCode)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
