package chrome

import (
	"context"
	"hash/fnv"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"wwb/internal/psl"
	"wwb/internal/telemetry"
	"wwb/internal/world"
)

// The per-entry reference index: every rank-list entry derives its
// site key on its own, the universe is the sorted set of those keys,
// and each cell's view is deduped through a fresh per-cell set. It is
// the plain statement of what the interned index holds, so the tests
// here hold the per-domain build, its growth on append, the index
// derived at snapshot decode and shard views to it, cell for cell.

// refView is one cell's view in the reference index.
type refView struct {
	ids      []KeyID
	firstPos []int32
}

// refBuildIndex derives the reference key universe of the given cells.
func refBuildIndex(cells map[CellKey]cell) []string {
	distinct := make(map[string]struct{})
	for _, c := range cells {
		for _, e := range c.list {
			distinct[psl.Default.SiteKey(e.Domain)] = struct{}{}
		}
	}
	keys := make([]string, 0, len(distinct))
	for k := range distinct {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// refCellView is the reference view of one rank list over a universe.
func refCellView(keys []string, list RankList) refView {
	var v refView
	seen := make(map[KeyID]struct{}, len(list))
	for i, e := range list {
		id := KeyID(sort.SearchStrings(keys, psl.Default.SiteKey(e.Domain)))
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		v.ids = append(v.ids, id)
		v.firstPos = append(v.firstPos, int32(i))
	}
	return v
}

// checkIndexAgainstOracle asserts that ds's index holds the universe
// refKeys and, for every cell of ds, the reference view of that cell's
// list — and no view for any cell ds does not hold.
func checkIndexAgainstOracle(t *testing.T, name string, ds *Dataset, refKeys []string) {
	t.Helper()
	ix := ds.Index()
	if !reflect.DeepEqual(ix.keys, refKeys) {
		t.Fatalf("%s: key universe differs from the per-entry oracle: %d keys vs %d", name, len(ix.keys), len(refKeys))
	}
	if len(ix.cells) != len(ds.cells) {
		t.Fatalf("%s: index holds %d cell views, dataset %d cells", name, len(ix.cells), len(ds.cells))
	}
	for k, c := range ds.cells {
		want := refCellView(refKeys, c.list)
		got, ok := ix.cells[k]
		if !ok {
			t.Fatalf("%s: cell %q has no view", name, k)
		}
		if len(got.ids) != len(want.ids) || len(got.firstPos) != len(want.firstPos) {
			t.Fatalf("%s: cell %q: %d ids / %d positions, oracle %d / %d", name, k, len(got.ids), len(got.firstPos), len(want.ids), len(want.firstPos))
		}
		for i := range want.ids {
			if got.ids[i] != want.ids[i] || got.firstPos[i] != want.firstPos[i] {
				t.Fatalf("%s: cell %q entry %d: (id %d, pos %d), oracle (%d, %d)", name, k, i, got.ids[i], got.firstPos[i], want.ids[i], want.firstPos[i])
			}
		}
	}
}

// checkSameIndex asserts that got holds want's key universe and, for
// every cell, want's view — the direct comparison for two indexes of
// the same lists built different ways (decoded, grown by an append,
// built under another GOMAXPROCS).
func checkSameIndex(t *testing.T, name string, got, want *KeyIndex) {
	t.Helper()
	if !reflect.DeepEqual(got.keys, want.keys) {
		t.Fatalf("%s: key universe differs: %d keys vs %d", name, len(got.keys), len(want.keys))
	}
	if len(got.cells) != len(want.cells) {
		t.Fatalf("%s: %d cell views, want %d", name, len(got.cells), len(want.cells))
	}
	for k, w := range want.cells {
		g, ok := got.cells[k]
		if !ok || !reflect.DeepEqual(g.ids, w.ids) || !reflect.DeepEqual(g.firstPos, w.firstPos) {
			t.Fatalf("%s: cell %q: view differs", name, k)
		}
	}
}

// shardOf splits (country, month) cells n ways by hash — the shape of
// the fleet's partition, without importing it.
func shardOf(country string, month world.Month, n int) int {
	h := fnv.New32a()
	h.Write([]byte(country + "|" + month.String()))
	return int(h.Sum32() % uint32(n))
}

func TestIndexMatchesPerEntryOracle(t *testing.T) {
	tcfg := telemetry.DefaultConfig()
	base := Assemble(testWorld, tcfg, appendBaseOpts())
	baseKeys := refBuildIndex(base.cells)

	t.Run("small", func(t *testing.T) {
		checkIndexAgainstOracle(t, "small", base, baseKeys)
	})

	t.Run("default", func(t *testing.T) {
		if testing.Short() {
			t.Skip("default-scale assembly is slow; run without -short")
		}
		ds := Assemble(world.Generate(world.DefaultConfig()), tcfg, DefaultOptions())
		checkIndexAgainstOracle(t, "default", ds, refBuildIndex(ds.cells))
	})

	for _, roll := range []bool{false, true} {
		name := "append"
		if roll {
			name = "append-rolldist"
		}
		t.Run(name, func(t *testing.T) {
			ds := cloneDataset(t, base) // derived index, grown by the append
			if _, err := AppendMonthCtx(context.Background(), ds, testWorld, tcfg, AppendOptions{Month: world.Mar2022, RollDist: roll}); err != nil {
				t.Fatal(err)
			}
			checkIndexAgainstOracle(t, name, ds, refBuildIndex(ds.cells))
		})
	}

	t.Run("delta-chain", func(t *testing.T) {
		dir := t.TempDir()
		baseSnap := snapshotBytes(t, base)
		writeArtifact(t, dir, "study.wwb", baseSnap)
		work := cloneDataset(t, base)
		incMar, err := AppendMonthCtx(context.Background(), work, testWorld, tcfg, AppendOptions{Month: world.Mar2022})
		if err != nil {
			t.Fatal(err)
		}
		deltaMar := encodeDeltaBytes(t, incMar, "study.wwb", baseSnap, testProvenance)
		writeArtifact(t, dir, "study+mar.wwbd", deltaMar)
		incApr, err := AppendMonthCtx(context.Background(), work, testWorld, tcfg, AppendOptions{Month: world.Apr2022, RollDist: true})
		if err != nil {
			t.Fatal(err)
		}
		writeArtifact(t, dir, "study+apr.wwbd", encodeDeltaBytes(t, incApr, "study+mar.wwbd", deltaMar, testProvenance))

		ds, info, err := DecodeAnyPath(filepath.Join(dir, "study+apr.wwbd"))
		if err != nil {
			t.Fatal(err)
		}
		if info.Chain != 2 {
			t.Fatalf("chain depth %d, want 2", info.Chain)
		}
		checkIndexAgainstOracle(t, "delta-chain", ds, refBuildIndex(ds.cells))
	})

	t.Run("shards", func(t *testing.T) {
		// A shard's index holds the parent's universe and the parent's
		// views of the kept cells.
		for _, n := range []int{2, 3} {
			kept := 0
			for i := 0; i < n; i++ {
				view := base.ShardView(func(c string, m world.Month) bool { return shardOf(c, m, n) == i })
				checkIndexAgainstOracle(t, "shard", view, baseKeys)
				kept += view.NumLists()
			}
			if kept != base.NumLists() {
				t.Fatalf("%d-way split keeps %d cells, base holds %d", n, kept, base.NumLists())
			}
		}
	})
}
