package chrome

import (
	"sync"
	"testing"

	"wwb/internal/psl"
	"wwb/internal/telemetry"
	"wwb/internal/world"
)

// refMergedKeys is the historical string-path dedup (ranklist.MergedKeys
// inlined to avoid an import cycle): first-ranked occurrence wins.
func refMergedKeys(l RankList) []string {
	seen := make(map[string]struct{}, len(l))
	out := make([]string, 0, len(l))
	for _, e := range l {
		key := psl.Default.SiteKey(e.Domain)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, key)
	}
	return out
}

// refKeyRanks is ranklist.KeyRanks inlined: merged key → best rank.
func refKeyRanks(l RankList) map[string]int {
	out := make(map[string]int, len(l))
	for i, e := range l {
		key := psl.Default.SiteKey(e.Domain)
		if _, dup := out[key]; !dup {
			out[key] = i + 1
		}
	}
	return out
}

func TestIndexIDsAreCanonicallySorted(t *testing.T) {
	ix := testDataset.Index()
	if ix.NumKeys() == 0 {
		t.Fatal("empty key universe")
	}
	for i := 1; i < ix.NumKeys(); i++ {
		if !(ix.Key(KeyID(i-1)) < ix.Key(KeyID(i))) {
			t.Fatalf("keys not strictly sorted at %d: %q vs %q", i, ix.Key(KeyID(i-1)), ix.Key(KeyID(i)))
		}
	}
}

func TestIndexRoundTrip(t *testing.T) {
	ix := testDataset.Index()
	for i := 0; i < ix.NumKeys(); i++ {
		id, ok := ix.ID(ix.Key(KeyID(i)))
		if !ok || id != KeyID(i) {
			t.Fatalf("round trip failed for id %d", i)
		}
	}
	if _, ok := ix.ID("no-such-key-ever"); ok {
		t.Error("unknown key should not resolve")
	}
	if ix.Key(-1) != "" || ix.Key(KeyID(ix.NumKeys())) != "" {
		t.Error("out-of-range KeyID should yield empty key")
	}
}

func TestMergedIDsMatchesStringPath(t *testing.T) {
	ix := testDataset.Index()
	for _, c := range []string{"US", "KR", "BR"} {
		for _, p := range world.Platforms {
			list := testDataset.List(c, p, world.PageLoads, world.Feb2022)
			want := refMergedKeys(list)
			got := ix.MergedIDs(c, p, world.PageLoads, world.Feb2022)
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d ids vs %d keys", c, p, len(got), len(want))
			}
			for i, id := range got {
				if ix.Key(id) != want[i] {
					t.Fatalf("%s/%s pos %d: id key %q, want %q", c, p, i, ix.Key(id), want[i])
				}
			}
		}
	}
}

func TestMergedIDsTopNMatchesStringPath(t *testing.T) {
	ix := testDataset.Index()
	list := testDataset.List("US", world.Windows, world.PageLoads, world.Feb2022)
	for _, n := range []int{-3, 0, 1, 7, 100, 999, len(list), len(list) + 50} {
		want := refMergedKeys(list.TopN(n))
		got := ix.MergedIDsTopN("US", world.Windows, world.PageLoads, world.Feb2022, n)
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d ids vs %d keys", n, len(got), len(want))
		}
		for i, id := range got {
			if ix.Key(id) != want[i] {
				t.Fatalf("n=%d pos %d: %q vs %q", n, i, ix.Key(id), want[i])
			}
		}
	}
}

func TestKeyRankIDsMatchesStringPath(t *testing.T) {
	ix := testDataset.Index()
	list := testDataset.List("DE", world.Android, world.PageLoads, world.Feb2022)
	want := refKeyRanks(list)
	ids, firstPos := ix.KeyRankIDs("DE", world.Android, world.PageLoads, world.Feb2022)
	if len(ids) != len(want) {
		t.Fatalf("%d ids vs %d ranks", len(ids), len(want))
	}
	for k, id := range ids {
		if got := int(firstPos[k]) + 1; got != want[ix.Key(id)] {
			t.Fatalf("key %q: rank %d, want %d", ix.Key(id), got, want[ix.Key(id)])
		}
	}
}

func TestRankMatchesKeyRanks(t *testing.T) {
	ix := testDataset.Index()
	list := testDataset.List("FR", world.Windows, world.PageLoads, world.Feb2022)
	want := refKeyRanks(list)
	for key, rank := range want {
		id, ok := ix.ID(key)
		if !ok {
			t.Fatalf("key %q missing from universe", key)
		}
		if got := ix.Rank("FR", world.Windows, world.PageLoads, world.Feb2022, id); got != rank {
			t.Fatalf("key %q: Rank %d, want %d", key, got, rank)
		}
	}
	// A key from the universe that is absent from this cell ranks 0.
	for i := 0; i < ix.NumKeys(); i++ {
		if _, present := want[ix.Key(KeyID(i))]; !present {
			if got := ix.Rank("FR", world.Windows, world.PageLoads, world.Feb2022, KeyID(i)); got != 0 {
				t.Fatalf("absent key %q: Rank %d, want 0", ix.Key(KeyID(i)), got)
			}
			break
		}
	}
	if got := ix.Rank("ZZ", world.Windows, world.PageLoads, world.Feb2022, 0); got != 0 {
		t.Fatalf("absent cell: Rank %d, want 0", got)
	}
}

func TestIndexAbsentCellIsEmpty(t *testing.T) {
	ix := testDataset.Index()
	if got := ix.MergedIDs("ZZ", world.Windows, world.PageLoads, world.Feb2022); len(got) != 0 {
		t.Errorf("absent cell yielded %d ids", len(got))
	}
}

func TestIndexConcurrentAccess(t *testing.T) {
	// First Index() call and the first Rank per cell (which builds the
	// cell's rank map) racing from many goroutines; under -race this
	// verifies the lazy paths are safe.
	ds := Assemble(testWorld, telemetry.DefaultConfig(), Options{
		PrivacyThreshold: 50,
		TopN:             2000,
		DistMonth:        world.Feb2022,
		Seed:             1,
		Months:           []world.Month{world.Feb2022},
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ix := ds.Index()
			for i, c := range ds.Countries {
				p := world.Platforms[(i+g)%len(world.Platforms)]
				ids := ix.MergedIDs(c, p, world.PageLoads, world.Feb2022)
				if len(ids) == 0 {
					t.Errorf("goroutine %d: empty cell %s", g, c)
					return
				}
				if r := ix.Rank(c, p, world.PageLoads, world.Feb2022, ids[0]); r != 1 {
					t.Errorf("goroutine %d: top key of %s ranked %d", g, c, r)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkDatasetIndexBuild is the one-time interning cost over the
// shared test dataset: the key universe plus every per-cell view, the
// price paid to make every later geography analysis ID-based. It
// calls buildIndex directly, so every iteration is a cold intern
// rather than a hit on the dataset's memoized index.
func BenchmarkDatasetIndexBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ix := buildIndex(testDataset.cells); len(ix.cells) != len(testDataset.cells) {
			b.Fatalf("%d cell views for %d cells", len(ix.cells), len(testDataset.cells))
		}
	}
}
