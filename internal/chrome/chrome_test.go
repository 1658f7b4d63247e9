package chrome

import (
	"context"
	"errors"
	"testing"
	"time"

	"wwb/internal/telemetry"
	"wwb/internal/world"
)

// testDataset is assembled once over the small universe, Feb only,
// and shared read-only across tests.
var (
	testWorld   = world.Generate(world.SmallConfig())
	testDataset = Assemble(testWorld, telemetry.DefaultConfig(), Options{
		PrivacyThreshold: 50,
		TopN:             10000,
		DistMonth:        world.Feb2022,
		Seed:             1,
		Months:           []world.Month{world.Feb2022},
	})
)

func TestAssembleCoversAllCells(t *testing.T) {
	if len(testDataset.Countries) != 45 {
		t.Fatalf("countries = %d, want 45", len(testDataset.Countries))
	}
	for _, c := range testDataset.Countries {
		for _, p := range world.Platforms {
			for _, m := range world.Metrics {
				l := testDataset.List(c, p, m, world.Feb2022)
				if len(l) < 100 {
					t.Errorf("%s/%s/%s: list too short (%d)", c, p, m, len(l))
				}
			}
		}
	}
}

func TestRankListsSortedDescending(t *testing.T) {
	for _, c := range []string{"US", "KR", "BO"} {
		for _, m := range world.Metrics {
			l := testDataset.List(c, world.Windows, m, world.Feb2022)
			for i := 1; i < len(l); i++ {
				if l[i].Value > l[i-1].Value {
					t.Fatalf("%s/%s: rank %d out of order", c, m, i)
				}
			}
		}
	}
}

func TestGoogleTopsLoads(t *testing.T) {
	us := testDataset.List("US", world.Windows, world.PageLoads, world.Feb2022)
	if us[0].Domain != "google.us" {
		t.Errorf("US top domain = %s, want google.us (localised)", us[0].Domain)
	}
	kr := testDataset.List("KR", world.Windows, world.PageLoads, world.Feb2022)
	if kr[0].Domain != "naver.com" {
		t.Errorf("KR top domain = %s, want naver.com", kr[0].Domain)
	}
}

func TestPrivacyThresholdTrimsSmallCountries(t *testing.T) {
	// A small country must have a materially shorter list than the US:
	// the unique-client threshold bites harder there (the paper notes
	// smaller countries often have fewer than 10K sites).
	us := len(testDataset.List("US", world.Windows, world.PageLoads, world.Feb2022))
	pa := len(testDataset.List("PA", world.Windows, world.PageLoads, world.Feb2022))
	if pa >= us {
		t.Errorf("Panama list (%d) should be shorter than US (%d)", pa, us)
	}
}

func TestPrivacyThresholdMonotone(t *testing.T) {
	strict := Assemble(testWorld, telemetry.DefaultConfig(), Options{
		PrivacyThreshold: 5000,
		TopN:             10000,
		DistMonth:        world.Feb2022,
		Seed:             1,
		Months:           []world.Month{world.Feb2022},
	})
	for _, c := range []string{"US", "PA", "KE"} {
		loose := len(testDataset.List(c, world.Windows, world.PageLoads, world.Feb2022))
		tight := len(strict.List(c, world.Windows, world.PageLoads, world.Feb2022))
		if tight > loose {
			t.Errorf("%s: stricter threshold grew the list (%d > %d)", c, tight, loose)
		}
	}
}

func TestCoverageBands(t *testing.T) {
	// Lists capture most but not all traffic; coverage must be in
	// (0.4, 1].
	for _, c := range []string{"US", "BR", "JP"} {
		cov := testDataset.Coverage(c, world.Windows, world.PageLoads, world.Feb2022)
		if cov <= 0.4 || cov > 1 {
			t.Errorf("%s coverage = %v, want (0.4, 1]", c, cov)
		}
	}
}

func TestRankListHelpers(t *testing.T) {
	l := RankList{{Domain: "a.com", Value: 10}, {Domain: "b.com", Value: 5}}
	if got := l.Rank("b.com"); got != 2 {
		t.Errorf("Rank = %d, want 2", got)
	}
	if got := l.Rank("missing.com"); got != 0 {
		t.Errorf("Rank missing = %d, want 0", got)
	}
	if got := l.TopN(1); len(got) != 1 || got[0].Domain != "a.com" {
		t.Errorf("TopN(1) = %v", got)
	}
	if got := l.TopN(10); len(got) != 2 {
		t.Errorf("TopN over-length = %v", got)
	}
	ds := l.Domains()
	if len(ds) != 2 || ds[0] != "a.com" {
		t.Errorf("Domains = %v", ds)
	}
}

func TestDistCurveProperties(t *testing.T) {
	d := testDataset.Dist(world.Windows, world.PageLoads)
	if d.Len() < 1000 {
		t.Fatalf("distribution too small: %d", d.Len())
	}
	// Non-increasing shares summing to 1.
	var sum float64
	for i, s := range d.Shares {
		if s <= 0 {
			t.Fatalf("share %d non-positive", i)
		}
		if i > 0 && s > d.Shares[i-1] {
			t.Fatalf("shares increase at %d", i)
		}
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	// Concentration: top site is a large single share; time is more
	// concentrated than loads at the very top (Section 4.1.2).
	if d.WeightAt(1) < 0.08 {
		t.Errorf("top-1 global share = %v, want >= 0.08", d.WeightAt(1))
	}
	tw := testDataset.Dist(world.Windows, world.TimeOnPage)
	if tw.CumShare(10) <= d.CumShare(10) {
		t.Errorf("time should be more top-concentrated: time10=%v loads10=%v",
			tw.CumShare(10), d.CumShare(10))
	}
}

func TestDistCurveEdges(t *testing.T) {
	d := NewDistCurve([]float64{3, 1, 0, -2, 6})
	if d.Len() != 3 {
		t.Fatalf("non-positive volumes should be dropped, len=%d", d.Len())
	}
	if d.WeightAt(0) != 0 || d.WeightAt(4) != 0 {
		t.Error("out-of-range ranks should weigh 0")
	}
	if d.WeightAt(1) != 0.6 {
		t.Errorf("top share = %v, want 0.6", d.WeightAt(1))
	}
	if v := d.CumShare(100); v < 0.999999 || v > 1.000001 {
		t.Errorf("CumShare past end = %v, want 1", v)
	}
	if got := d.SitesForShare(0.5); got != 1 {
		t.Errorf("SitesForShare(0.5) = %d, want 1", got)
	}
	if got := d.SitesForShare(2); got != 3 {
		t.Errorf("unreachable share should return length, got %d", got)
	}
	empty := NewDistCurve(nil)
	if empty.Len() != 0 || empty.CumShare(5) != 0 {
		t.Error("empty curve misbehaves")
	}
}

func TestAssembleDeterminism(t *testing.T) {
	other := Assemble(testWorld, telemetry.DefaultConfig(), testDataset.Opts)
	a := testDataset.List("DE", world.Android, world.TimeOnPage, world.Feb2022)
	b := other.List("DE", world.Android, world.TimeOnPage, world.Feb2022)
	if len(a) != len(b) {
		t.Fatal("list sizes differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	got, _, err := DecodeSnapshotBytes(snapshotBytes(t, testDataset))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Countries) != len(testDataset.Countries) {
		t.Fatal("countries lost in round trip")
	}
	a := testDataset.List("FR", world.Windows, world.PageLoads, world.Feb2022)
	b := got.List("FR", world.Windows, world.PageLoads, world.Feb2022)
	if len(a) != len(b) || a[0] != b[0] || a[len(a)-1] != b[len(b)-1] {
		t.Error("lists differ after round trip")
	}
	if got.Dist(world.Android, world.PageLoads).Len() != testDataset.Dist(world.Android, world.PageLoads).Len() {
		t.Error("distribution lost in round trip")
	}
	if got.Coverage("FR", world.Windows, world.PageLoads, world.Feb2022) !=
		testDataset.Coverage("FR", world.Windows, world.PageLoads, world.Feb2022) {
		t.Error("coverage lost in round trip")
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, _, err := DecodeSnapshotBytes([]byte("{nope")); err == nil {
		t.Error("garbage input should error")
	}
	ds, _, err := DecodeSnapshotBytes(snapshotBytes(t, &Dataset{}))
	if err != nil {
		t.Fatalf("empty dataset should decode: %v", err)
	}
	if ds.List("US", world.Windows, world.PageLoads, world.Feb2022) != nil {
		t.Error("empty dataset should have nil lists")
	}
}

// TestAssembleCtxTimeoutMidAssembly: a deadline that lands partway
// through assembling every study month returns promptly with the
// context error and no dataset.
func TestAssembleCtxTimeoutMidAssembly(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	ds, err := AssembleCtx(ctx, testWorld, telemetry.DefaultConfig(), Options{
		PrivacyThreshold: 50, TopN: 10000, DistMonth: world.Feb2022, Seed: 1,
	})
	if !errors.Is(err, context.DeadlineExceeded) || ds != nil {
		t.Fatalf("AssembleCtx = %v, %v; want nil, deadline exceeded", ds, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timed-out AssembleCtx took %s to give up", elapsed)
	}
}
