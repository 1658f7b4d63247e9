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
