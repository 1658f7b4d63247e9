package fleet

import (
	"context"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSingleProbeRecovery: when a gated replica's cooldown lapses,
// exactly one concurrent caller wins the recovery probe; everyone else
// sees the re-armed gate. A just-recovered backend gets one request,
// not a stampede.
func TestSingleProbeRecovery(t *testing.T) {
	const cooldown = 50 * time.Millisecond
	rep := &replica{base: "http://x"}
	now := time.Now()
	rep.markFailed(now, cooldown)

	if rep.available(now.Add(cooldown/2), cooldown) {
		t.Fatal("replica available mid-cooldown")
	}

	probesBefore := mReplicaProbes.Value()
	later := now.Add(cooldown + time.Millisecond)
	var wins atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rep.available(later, cooldown) {
				wins.Add(1)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("%d callers won the recovery probe, want exactly 1", wins.Load())
	}
	if got := mReplicaProbes.Value() - probesBefore; got != 1 {
		t.Fatalf("fleet_replica_probes_total advanced by %d, want 1", got)
	}

	// The probe's CAS re-armed the gate: until the probe settles the
	// state, further callers keep routing around.
	if rep.available(later, cooldown) {
		t.Fatal("gate not re-armed after the probe was claimed")
	}
	rep.markHealthy()
	if !rep.available(later, cooldown) {
		t.Fatal("replica still gated after markHealthy")
	}
}

// TestRetryBudgetBoundsReplicaWalk: with every replica dead and a
// budget smaller than the replica count, the router stops after
// 1 + budget attempts instead of walking the whole (sick) fleet, and
// the exhaustion is visible in fleet_retry_budget_exhausted_total.
func TestRetryBudgetBoundsReplicaWalk(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())

	reps := []string{deadBaseURL(t), deadBaseURL(t), deadBaseURL(t), deadBaseURL(t), deadBaseURL(t)}
	rt, err := NewRouter(RouterConfig{
		Shards:      [][]string{reps},
		RetryBudget: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	retriesBefore := mReplicaRetries.Value()
	exhaustedBefore := mBudgetExhausted.Value()
	darkBefore := mShardDark.Value()

	_, err = rt.do(context.Background(), 0, http.MethodGet, "/v1/dist?n=5", rt.budgetFor(false))
	if err == nil {
		t.Fatal("all-dead shard produced a response")
	}
	var dark *ShardDarkError
	if !errors.As(err, &dark) || dark.Shard != 0 {
		t.Fatalf("error %v is not a ShardDarkError for shard 0", err)
	}
	if got := mReplicaRetries.Value() - retriesBefore; got != 2 {
		t.Fatalf("spent %d retries, want exactly the budget of 2", got)
	}
	if mBudgetExhausted.Value() == exhaustedBefore {
		t.Error("budget exhaustion not counted")
	}
	if mShardDark.Value() == darkBefore {
		t.Error("dark shard not counted")
	}
}

// TestHedgedReadBeatsSlowReplica: a fan-out leg stuck behind a slow
// replica is rescued by the hedge — the second attempt lands on the
// fast sibling and wins, visible in fleet_hedge_wins_total.
func TestHedgedReadBeatsSlowReplica(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())

	inner := NewServer(fleetDS, ServerConfig{Month: fleetDS.Opts.DistMonth}).Routes(MiddlewareConfig{})
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer slow.Close()
	defer close(release)
	fast := httptest.NewServer(inner)
	defer fast.Close()

	rt, err := NewRouter(RouterConfig{
		Shards:   [][]string{{slow.URL, fast.URL}},
		HedgeMax: 5 * time.Millisecond, // no latency samples yet → hedge fires at the max clamp
	})
	if err != nil {
		t.Fatal(err)
	}

	hedgesBefore := mHedges.Value()
	winsBefore := mHedgeWins.Value()

	// The rotation cursor starts the primary at replica 0 (slow); the
	// hedge's walk starts at replica 1 (fast).
	resp, err := rt.doHedged(context.Background(), 0, "/v1/dist?n=5", rt.budgetFor(false))
	if err != nil {
		t.Fatal(err)
	}
	if resp.status != http.StatusOK {
		t.Fatalf("hedged read: status %d", resp.status)
	}
	if resp.replica != fast.URL {
		t.Fatalf("winning replica %s, want the fast sibling %s", resp.replica, fast.URL)
	}
	if mHedges.Value() == hedgesBefore {
		t.Error("hedge launch not counted")
	}
	if mHedgeWins.Value() == winsBefore {
		t.Error("hedge win not counted")
	}
}

// TestCruxCacheEvictedOnEpochAdvance: the router's per-(epoch, month)
// /v1/crux export is dropped as soon as the router learns the fleet
// moved to a newer epoch — via a fleet swap it orchestrated or an epoch
// observed on any sub-response — so a superseded export never pins its
// memory.
func TestCruxCacheEvictedOnEpochAdvance(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())

	groups := startShards(t, fleetDS, 2, testLoader)
	rt, err := NewRouter(RouterConfig{Shards: groups})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Routes(MiddlewareConfig{}))
	defer ts.Close()

	cached := func() (bool, uint64) {
		ex := rt.crux.Load()
		if ex == nil {
			return false, 0
		}
		return true, ex.epoch
	}

	if status, _, _ := fetch(t, ts.URL, "/v1/crux"); status != http.StatusOK {
		t.Fatalf("crux: status %d", status)
	}
	if ok, epoch := cached(); !ok || epoch != 1 {
		t.Fatalf("crux cache not populated at epoch 1 (ok=%v epoch=%d)", ok, epoch)
	}

	// A fleet swap advances the epoch; the stale export must be gone
	// the moment the swap completes, not at the next /v1/crux request.
	if status, body := postSwap(t, ts.URL, "data=B.wwb"); status != http.StatusOK {
		t.Fatalf("fleet swap: status %d (%s)", status, body)
	}
	if ok, _ := cached(); ok {
		t.Fatal("superseded crux export still cached after the swap")
	}

	// Repopulate at epoch 2, then let noteEpoch observe a newer epoch
	// on an ordinary sub-response path.
	if status, _, _ := fetch(t, ts.URL, "/v1/crux"); status != http.StatusOK {
		t.Fatal("crux after swap failed")
	}
	if ok, epoch := cached(); !ok || epoch != 2 {
		t.Fatalf("crux cache not repopulated at epoch 2 (ok=%v epoch=%d)", ok, epoch)
	}
	rt.noteEpoch(3)
	if ok, _ := cached(); ok {
		t.Fatal("crux export outlived a noteEpoch advance")
	}
}
