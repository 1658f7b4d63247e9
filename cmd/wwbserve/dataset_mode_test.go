package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"wwb/internal/chrome"
	"wwb/internal/fleet"
)

// TestDatasetOnlyMode exercises the -data path: a dataset round-
// tripped through a .wwb snapshot file, served without a study.
func TestDatasetOnlyMode(t *testing.T) {
	ds, _ := loadSnapshotFile(t, testStudyDataset())
	srv := httptest.NewServer(newDatasetServer(ds, fleet.Assignment{}).Routes(fleet.MiddlewareConfig{}))
	defer srv.Close()

	// Lists work; category is empty without a study.
	resp, err := http.Get(srv.URL + "/v1/list?country=US&n=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp.StatusCode)
	}
	var list []struct {
		Domain   string `json:"domain"`
		Category string `json:"category"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 || list[0].Domain != "google.us" {
		t.Errorf("list = %+v", list)
	}
	if list[0].Category != "" {
		t.Errorf("dataset-only category = %q, want empty", list[0].Category)
	}

	// Site profiles still work (rank data only, no category).
	resp2, err := http.Get(srv.URL + "/v1/site?domain=google.com")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("site status %d", resp2.StatusCode)
	}

	// Experiments are explicitly unavailable.
	resp3, err := http.Get(srv.URL + "/v1/experiment/fig1")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotImplemented {
		t.Errorf("experiment status %d, want 501", resp3.StatusCode)
	}
}

// testStudyDataset exposes the shared test study's dataset.
func testStudyDataset() *chrome.Dataset {
	return testStudyForDataset.Dataset
}
