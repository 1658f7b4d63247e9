package experiments

import (
	"strings"
	"testing"

	"wwb/internal/core"
)

var testRunner = Runner{Study: core.New(core.SmallConfig())}

func TestIDsAndLookup(t *testing.T) {
	ids := IDs()
	if len(ids) != len(registry) {
		t.Fatalf("IDs = %d, registry = %d", len(ids), len(registry))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
		e, ok := Lookup(id)
		if !ok || e.ID != id || e.Title == "" || e.Render == nil {
			t.Fatalf("lookup %q broken", id)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("unknown id should not resolve")
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := testRunner.Run("fig99"); err == nil {
		t.Error("unknown experiment should error")
	}
}

// TestEveryExperimentRenders also checks that no analysis categorises
// a domain outside the study's label table: the resilient client makes
// no lookup while every experiment, ext-summer included, renders.
func TestEveryExperimentRenders(t *testing.T) {
	lookups := testRunner.Study.Client.Stats().Lookups
	for _, id := range IDs() {
		out, err := testRunner.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out) < 40 {
			t.Errorf("%s: suspiciously short output:\n%s", id, out)
		}
		if strings.Contains(out, "NaN") {
			t.Errorf("%s: output contains NaN:\n%s", id, out)
		}
	}
	if got := testRunner.Study.Client.Stats().Lookups; got != lookups {
		t.Errorf("rendering every experiment made %d categorisation lookups, want 0", got-lookups)
	}
}

func TestFig1ContainsConcentration(t *testing.T) {
	out, _ := testRunner.Run("fig1")
	for _, want := range []string{"Windows", "Android", "Page Loads", "Time on Page", "N=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2ReportsRarity(t *testing.T) {
	out, _ := testRunner.Run("table2")
	if !strings.Contains(out, "% global") {
		t.Errorf("table2 malformed:\n%s", out)
	}
}

func TestFig11ReportsClusters(t *testing.T) {
	out, _ := testRunner.Run("fig11")
	if !strings.Contains(out, "average silhouette") {
		t.Errorf("fig11 missing summary:\n%s", out)
	}
}

func TestRunAllIncludesEveryTitle(t *testing.T) {
	out := testRunner.RunAll()
	for _, e := range registry {
		if !strings.Contains(out, e.Title) {
			t.Errorf("RunAll missing %q", e.Title)
		}
	}
}
