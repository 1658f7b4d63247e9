package chrome

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"wwb/internal/psl"
	"wwb/internal/telemetry"
	"wwb/internal/world"
)

// The append-vs-full-rebuild equivalence suite. The acceptance bar
// for the roll-forward is byte identity: a dataset grown by
// AppendMonthCtx must encode to exactly the bytes of a full rebuild
// whose Options cover the extended window, at every GOMAXPROCS.

func appendBaseOpts() Options {
	return Options{
		PrivacyThreshold: 50,
		TopN:             10000,
		DistMonth:        world.Feb2022,
		Seed:             1,
		Months:           []world.Month{world.Jan2022, world.Feb2022},
	}
}

// cloneDataset round-trips through the snapshot codec — a cheap deep
// copy so one assembled base can feed several mutating append runs.
func cloneDataset(t *testing.T, ds *Dataset) *Dataset {
	t.Helper()
	clone, _, err := DecodeSnapshotBytes(snapshotBytes(t, ds))
	if err != nil {
		t.Fatalf("decode clone: %v", err)
	}
	return clone
}

func TestAppendMatchesFullRebuild(t *testing.T) {
	tcfg := telemetry.DefaultConfig()
	base := Assemble(testWorld, tcfg, appendBaseOpts())

	oracleOpts := appendBaseOpts()
	oracleOpts.Months = []world.Month{world.Jan2022, world.Feb2022, world.Mar2022}
	oracle := snapshotBytes(t, Assemble(testWorld, tcfg, oracleOpts))

	for _, procs := range []int{1, 8} {
		ds := cloneDataset(t, base)
		var (
			inc *Increment
			err error
		)
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			inc, err = AppendMonthCtx(context.Background(), ds, testWorld, tcfg, AppendOptions{Month: world.Mar2022})
		}()
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: append: %v", procs, err)
		}
		if inc.Month != world.Mar2022 || inc.RollDist || inc.Dist != nil {
			t.Fatalf("GOMAXPROCS=%d: increment = %+v, want plain Mar2022 append", procs, inc)
		}
		if got := snapshotBytes(t, ds); !bytes.Equal(got, oracle) {
			t.Errorf("GOMAXPROCS=%d: appended dataset differs from full rebuild (%d vs %d bytes)", procs, len(got), len(oracle))
		}
	}
}

func TestAppendRollDistMatchesFullRebuild(t *testing.T) {
	tcfg := telemetry.DefaultConfig()
	base := Assemble(testWorld, tcfg, appendBaseOpts())

	// The appended month becomes DistMonth: the global curves must be
	// recomputed from the new month's full sub-threshold telemetry,
	// not carried forward from February's.
	oracleOpts := appendBaseOpts()
	oracleOpts.Months = []world.Month{world.Jan2022, world.Feb2022, world.Mar2022}
	oracleOpts.DistMonth = world.Mar2022
	oracleDS := Assemble(testWorld, tcfg, oracleOpts)
	oracle := snapshotBytes(t, oracleDS)

	ds := cloneDataset(t, base)
	inc, err := AppendMonthCtx(context.Background(), ds, testWorld, tcfg, AppendOptions{
		Month: world.Mar2022, RollDist: true,
	})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if !inc.RollDist || len(inc.Dist) != 2*len(world.Platforms) {
		t.Fatalf("roll-dist increment carries %d curves, want %d", len(inc.Dist), 2*len(world.Platforms))
	}
	if ds.Opts.DistMonth != world.Mar2022 {
		t.Fatalf("DistMonth = %s after roll, want 2022-03", ds.Opts.DistMonth)
	}
	if got := snapshotBytes(t, ds); !bytes.Equal(got, oracle) {
		t.Errorf("roll-dist appended dataset differs from full rebuild (%d vs %d bytes)", len(got), len(oracle))
	}
	// The curves must actually have moved — identical curves would
	// mean the append silently carried February forward.
	carried := base.Dist(world.Windows, world.PageLoads)
	rolled := ds.Dist(world.Windows, world.PageLoads)
	if carried.Len() == rolled.Len() {
		same := true
		for i := range rolled.Shares {
			if rolled.Shares[i] != carried.Shares[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("roll-dist curves identical to the base month's — carried forward, not recomputed")
		}
	}
}

// TestAppendInvalidatesIndexMemos is the satellite regression for the
// stale-memo bug: the interned index and its per-cell views are built
// lazily and were never invalidated on mutation. Build them, mutate,
// re-query, and diff against a fresh build.
func TestAppendInvalidatesIndexMemos(t *testing.T) {
	tcfg := telemetry.DefaultConfig()
	ds := Assemble(testWorld, tcfg, appendBaseOpts())

	preIx := ds.Index()
	// Materialise per-cell memos and a rank map before the mutation.
	preIDs := append([]KeyID{}, preIx.MergedIDs("US", world.Windows, world.PageLoads, world.Feb2022)...)
	topUS := ds.List("US", world.Windows, world.PageLoads, world.Feb2022)[0].Domain
	_ = preIx.Rank("US", world.Windows, world.PageLoads, world.Feb2022, preIDs[0])
	if g := ds.Generation(); g != 0 {
		t.Fatalf("pre-append generation = %d, want 0", g)
	}

	AppendMonth(ds, testWorld, tcfg, AppendOptions{Month: world.Mar2022})
	if g := ds.Generation(); g != 1 {
		t.Fatalf("post-append generation = %d, want 1", g)
	}

	oracleOpts := appendBaseOpts()
	oracleOpts.Months = []world.Month{world.Jan2022, world.Feb2022, world.Mar2022}
	fresh := Assemble(testWorld, tcfg, oracleOpts)
	freshIx, postIx := fresh.Index(), ds.Index()

	if postIx.NumKeys() != freshIx.NumKeys() {
		t.Fatalf("grown index has %d keys, fresh build %d", postIx.NumKeys(), freshIx.NumKeys())
	}
	for id := 0; id < freshIx.NumKeys(); id++ {
		if postIx.Key(KeyID(id)) != freshIx.Key(KeyID(id)) {
			t.Fatalf("key id %d: grown %q, fresh %q", id, postIx.Key(KeyID(id)), freshIx.Key(KeyID(id)))
		}
	}
	for _, month := range []world.Month{world.Jan2022, world.Feb2022, world.Mar2022} {
		for _, c := range []string{"US", "KR", "BO"} {
			got := postIx.MergedIDs(c, world.Windows, world.PageLoads, month)
			want := freshIx.MergedIDs(c, world.Windows, world.PageLoads, month)
			if len(got) != len(want) {
				t.Fatalf("%s/%s: grown cell view has %d ids, fresh %d", c, month, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: id %d differs after append (%d vs %d)", c, month, i, got[i], want[i])
				}
			}
		}
	}
	// Point lookups agree with a fresh build too — the pre-append rank
	// map must not leak through.
	id, ok := postIx.ID(psl.Default.SiteKey(topUS))
	if !ok {
		t.Fatalf("top US domain %q missing from grown index", topUS)
	}
	if got, want := postIx.Rank("US", world.Windows, world.PageLoads, world.Feb2022, id),
		freshIx.Rank("US", world.Windows, world.PageLoads, world.Feb2022, id); got != want {
		t.Errorf("rank of %q = %d after append, fresh build %d", topUS, got, want)
	}
}

func TestAppendRejectsBadInput(t *testing.T) {
	tcfg := telemetry.DefaultConfig()
	ds := Assemble(testWorld, tcfg, appendBaseOpts())

	if _, err := AppendMonthCtx(context.Background(), ds, testWorld, tcfg, AppendOptions{Month: world.Feb2022}); err == nil {
		t.Error("appending an already-covered month succeeded")
	}
	if _, err := AppendMonthCtx(context.Background(), ds, testWorld, tcfg, AppendOptions{Month: world.Month(99)}); err == nil {
		t.Error("appending an out-of-range month succeeded")
	}
	// World identity beyond the country list cannot be checked
	// in-process — that binding is the snapshot provenance's job (the
	// CLIs regenerate the world from the base's recorded config and
	// refuse mismatches); see the wwbgen path and delta DMET section.
	if g := ds.Generation(); g != 0 {
		t.Errorf("failed appends advanced generation to %d", g)
	}
}

// TestApplyIncrementRejectsMismatchedBase drives ApplyIncrement (the
// path a decoded delta snapshot takes) with increments that don't
// belong to the base.
func TestApplyIncrementRejectsMismatchedBase(t *testing.T) {
	tcfg := telemetry.DefaultConfig()
	base := Assemble(testWorld, tcfg, appendBaseOpts())
	donor := cloneDataset(t, base)
	inc, err := AppendMonthCtx(context.Background(), donor, testWorld, tcfg, AppendOptions{Month: world.Mar2022})
	if err != nil {
		t.Fatalf("append: %v", err)
	}

	// Re-applying to the already-extended donor: month covered.
	if err := donor.ApplyIncrement(inc); err == nil {
		t.Error("re-applying an increment succeeded")
	}
	// Wrong seed in the resulting options.
	bad := *inc
	bad.Opts.Seed = 999
	if err := cloneDataset(t, base).ApplyIncrement(&bad); err == nil {
		t.Error("increment with mismatched seed applied")
	}
	// Truncated cell grid.
	bad = *inc
	bad.Lists = make(map[string]RankList, len(inc.Lists)-1)
	for k, l := range inc.Lists {
		bad.Lists[k] = l
	}
	delete(bad.Lists, listKey("US", world.Windows, world.PageLoads, world.Mar2022))
	if err := cloneDataset(t, base).ApplyIncrement(&bad); err == nil {
		t.Error("increment missing a cell applied")
	}
	// Dist curves on a non-roll increment.
	bad = *inc
	bad.Dist = map[string]*DistCurve{distKey(world.Windows, world.PageLoads): base.Dist(world.Windows, world.PageLoads)}
	if err := cloneDataset(t, base).ApplyIncrement(&bad); err == nil {
		t.Error("non-roll increment carrying dist curves applied")
	}
	// A clean clone still accepts the untouched increment.
	good := cloneDataset(t, base)
	if err := good.ApplyIncrement(inc); err != nil {
		t.Errorf("clean increment rejected: %v", err)
	}
}
