package telemetry

import (
	"math"
	"testing"

	"wwb/internal/world"
)

var testWorld = world.Generate(world.SmallConfig())

func testCellRNG(cell Cell) *world.RNG {
	return world.NewRNG(7).Fork("cell|" + cell.Country + "|" + cell.Platform.String() + "|" + cell.Month.String())
}

func TestSampleCellDeterminism(t *testing.T) {
	cell := Cell{Country: "US", Platform: world.Windows, Month: world.Feb2022}
	a := SampleCell(testCellRNG(cell), testWorld, DefaultConfig(), cell)
	b := SampleCell(testCellRNG(cell), testWorld, DefaultConfig(), cell)
	if len(a) != len(b) {
		t.Fatal("non-deterministic cell size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSampleCellPositiveAndSortable(t *testing.T) {
	cell := Cell{Country: "BR", Platform: world.Android, Month: world.Feb2022}
	stats := SampleCell(testCellRNG(cell), testWorld, DefaultConfig(), cell)
	if len(stats) < 300 {
		t.Fatalf("only %d sites sampled", len(stats))
	}
	for i, s := range stats {
		if s.Loads <= 0 || s.TimeMS < 0 || s.Clients <= 0 || s.Domain == "" {
			t.Fatalf("row %d invalid: %+v", i, s)
		}
		if s.Clients > s.Loads {
			t.Fatalf("%s: more clients than loads", s.Domain)
		}
	}
	SortByLoads(stats)
	for i := 1; i < len(stats); i++ {
		if stats[i].Loads > stats[i-1].Loads {
			t.Fatal("SortByLoads: not sorted by loads descending")
		}
		if stats[i].Loads == stats[i-1].Loads && stats[i].Domain < stats[i-1].Domain {
			t.Fatal("SortByLoads: domain tie-break violated")
		}
	}
}

// TestSampleCellVisitMatchesSlice is the streaming path's equivalence
// guarantee: identical sites in identical order with identical draws,
// and totals that equal the slice sums exactly.
func TestSampleCellVisitMatchesSlice(t *testing.T) {
	for _, cell := range []Cell{
		{Country: "US", Platform: world.Windows, Month: world.Feb2022},
		{Country: "KR", Platform: world.Android, Month: world.Dec2021},
	} {
		slice := SampleCell(testCellRNG(cell), testWorld, DefaultConfig(), cell)
		var streamed []SiteStats
		tot := SampleCellVisit(testCellRNG(cell), testWorld, DefaultConfig(), cell,
			func(pos int, s SiteStats) {
				if d := testWorld.Candidates(cell.Country)[pos].Domain; d != s.Domain {
					t.Fatalf("visit at candidate %d (%s) carries %s", pos, d, s.Domain)
				}
				streamed = append(streamed, s)
			})
		if len(streamed) != len(slice) {
			t.Fatalf("%+v: streamed %d sites, slice %d", cell, len(streamed), len(slice))
		}
		var wantLoads, wantTime int64
		for i := range slice {
			if streamed[i] != slice[i] {
				t.Fatalf("%+v row %d: %+v vs %+v", cell, i, streamed[i], slice[i])
			}
			wantLoads += slice[i].Loads
			wantTime += slice[i].TimeMS
		}
		if tot.Loads != wantLoads || tot.TimeMS != wantTime || tot.Sites != len(slice) {
			t.Fatalf("%+v totals %+v, want loads %d time %d sites %d",
				cell, tot, wantLoads, wantTime, len(slice))
		}
	}
}

// TestSampleCellVisitUnknownCountry mirrors the slice path's nil
// behaviour: no visits, zero totals.
func TestSampleCellVisitUnknownCountry(t *testing.T) {
	cell := Cell{Country: "XX", Platform: world.Windows, Month: world.Feb2022}
	tot := SampleCellVisit(testCellRNG(cell), testWorld, DefaultConfig(), cell,
		func(int, SiteStats) { t.Fatal("visit called for unknown country") })
	if tot != (CellTotals{}) {
		t.Fatalf("non-zero totals %+v for unknown country", tot)
	}
}

func TestSampleCellSharesTrackWeights(t *testing.T) {
	cell := Cell{Country: "US", Platform: world.Windows, Month: world.Feb2022}
	stats := SampleCell(testCellRNG(cell), testWorld, DefaultConfig(), cell)
	var total int64
	byDomain := map[string]int64{}
	for _, s := range stats {
		total += s.Loads
		byDomain[s.Domain] = s.Loads
	}
	us, _ := world.CountryByCode("US")
	weights := testWorld.Weights("US", world.Windows, world.Feb2022)
	var wTotal float64
	for _, sw := range weights {
		wTotal += sw.Loads
	}
	// The sampled share of a heavy site must match its expected share
	// closely (Poisson error is tiny at this volume).
	for _, sw := range weights {
		expShare := sw.Loads / wTotal
		if expShare < 0.01 {
			continue
		}
		gotShare := float64(byDomain[sw.Site.DomainIn(us)]) / float64(total)
		if math.Abs(gotShare-expShare)/expShare > 0.05 {
			t.Errorf("%s: share %.4f, want %.4f", sw.Site.Key, gotShare, expShare)
		}
	}
}

func TestSampleCellUnknownCountry(t *testing.T) {
	cell := Cell{Country: "XX", Platform: world.Windows, Month: world.Feb2022}
	if got := SampleCell(testCellRNG(cell), testWorld, DefaultConfig(), cell); got != nil {
		t.Error("unknown country should yield nil")
	}
}

func TestTimeReconstructionUnbiased(t *testing.T) {
	// Across many draws, reconstructed time should average near
	// loads × dwell.
	rng := world.NewRNG(11)
	const loads, dwell = 100000.0, 50.0
	var sum float64
	n := 500
	for i := 0; i < n; i++ {
		sum += float64(sampleTimeMS(rng, loads, dwell, 0.0035))
	}
	mean := sum / float64(n)
	want := loads * dwell * 1000
	if math.Abs(mean-want)/want > 0.02 {
		t.Errorf("mean reconstructed time %v, want %v", mean, want)
	}
}

func TestTimeNoiseShrinksWithVolume(t *testing.T) {
	spread := func(loads float64) float64 {
		rng := world.NewRNG(13)
		var xs []float64
		for i := 0; i < 300; i++ {
			xs = append(xs, float64(sampleTimeMS(rng, loads, 60, 0.0035))/(loads*60*1000))
		}
		var m, ss float64
		for _, x := range xs {
			m += x
		}
		m /= float64(len(xs))
		for _, x := range xs {
			ss += (x - m) * (x - m)
		}
		return math.Sqrt(ss / float64(len(xs)))
	}
	small, big := spread(500), spread(5e6)
	if big >= small {
		t.Errorf("time noise should shrink with volume: small=%v big=%v", small, big)
	}
}

func TestUniqueClientsOccupancy(t *testing.T) {
	rng := world.NewRNG(17)
	// Tiny traffic: clients ≈ loads / perVisitor (but ≥ 1).
	u := uniqueClients(rng, 80, 1e6, 8)
	if u < 5 || u > 25 {
		t.Errorf("low-traffic clients = %d, want ≈10", u)
	}
	// Massive traffic: clients saturate at the population.
	u = uniqueClients(rng, 1e9, 1e4, 8)
	if u < 9000 || u > 10000 {
		t.Errorf("saturated clients = %d, want ≈10000 (never above population)", u)
	}
	if uniqueClients(rng, 10, 0, 8) != 0 {
		t.Error("zero population should yield 0")
	}
}

func TestClientBrowseTraceShape(t *testing.T) {
	us, _ := world.CountryByCode("US")
	rng := world.NewRNG(5).Fork("client|1")
	cl := NewClient(rng, testWorld, DefaultConfig(), 1, us, world.Windows, world.Feb2022)
	trace := cl.Browse(5000)
	if len(trace.Loads) != 5000 {
		t.Fatalf("loads = %d, want 5000", len(trace.Loads))
	}
	// Down-sampling: ≈ 0.35% of loads upload a foreground event.
	if len(trace.Foreground) < 2 || len(trace.Foreground) > 60 {
		t.Errorf("foreground events = %d, want ≈17", len(trace.Foreground))
	}
	for _, ev := range trace.Foreground {
		if ev.DurationMS <= 0 {
			t.Fatal("non-positive foreground duration")
		}
	}
}

func TestClientBrowseEmpty(t *testing.T) {
	us, _ := world.CountryByCode("US")
	cl := NewClient(world.NewRNG(5), testWorld, DefaultConfig(), 1, us, world.Windows, world.Feb2022)
	trace := cl.Browse(0)
	if len(trace.Loads) != 0 || len(trace.Foreground) != 0 {
		t.Error("zero loads should yield empty trace")
	}
}

func TestIsNonPublic(t *testing.T) {
	if !IsNonPublic("intranet.corp.internal") || !IsNonPublic("nas.home.local") {
		t.Error("internal domains should be non-public")
	}
	if IsNonPublic("google.com") {
		t.Error("google.com is public")
	}
}

func TestCollectorFiltersNonPublicAndScalesTime(t *testing.T) {
	cfg := DefaultConfig()
	co := NewCollector(cfg)
	co.Add(ClientTrace{
		ClientID: 1,
		Loads: []PageLoadEvent{
			{Domain: "example.com"}, {Domain: "example.com"},
			{Domain: nonPublicDomain},
		},
		Foreground: []ForegroundEvent{
			{Domain: "example.com", DurationMS: 700},
			{Domain: nonPublicDomain, DurationMS: 999},
		},
	})
	co.Add(ClientTrace{
		ClientID: 2,
		Loads:    []PageLoadEvent{{Domain: "example.com"}},
	})
	stats := co.Stats()
	if len(stats) != 1 {
		t.Fatalf("stats rows = %d, want 1 (non-public dropped)", len(stats))
	}
	s := stats[0]
	if s.Domain != "example.com" || s.Loads != 3 || s.Clients != 2 {
		t.Errorf("unexpected stats: %+v", s)
	}
	wantTime := int64(700 / cfg.DownsampleRate)
	if s.TimeMS != wantTime {
		t.Errorf("time = %d, want %d (scaled by 1/rate)", s.TimeMS, wantTime)
	}
}

func TestEventAndAggregatePathsAgree(t *testing.T) {
	// Simulate a small population event-by-event and compare the share
	// of the top site against the aggregate path's share: the two
	// implementations of the same process must agree.
	us, _ := world.CountryByCode("US")
	cfg := DefaultConfig()
	cfg.NonPublicShare = 0
	co := NewCollector(cfg)
	base := world.NewRNG(23)
	const nClients, loadsPer = 60, 400
	for i := 0; i < nClients; i++ {
		rng := base.Fork("client|" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
		cl := NewClient(rng, testWorld, cfg, uint64(i), us, world.Windows, world.Feb2022)
		co.Add(cl.Browse(loadsPer))
	}
	stats := co.Stats()
	var total int64
	for _, s := range stats {
		total += s.Loads
	}
	topShare := float64(stats[0].Loads) / float64(total)

	cell := Cell{Country: "US", Platform: world.Windows, Month: world.Feb2022}
	agg := SampleCell(testCellRNG(cell), testWorld, cfg, cell)
	var aggTotal int64
	for _, s := range agg {
		aggTotal += s.Loads
	}
	aggTop := float64(agg[0].Loads) / float64(aggTotal)

	if stats[0].Domain != agg[0].Domain {
		t.Errorf("top domains differ: event=%s agg=%s", stats[0].Domain, agg[0].Domain)
	}
	if math.Abs(topShare-aggTop) > 0.05 {
		t.Errorf("top-site share differs: event=%.3f agg=%.3f", topShare, aggTop)
	}
}
