// Package fleet is the horizontal serving tier: it turns the single
// wwbserve process into a sharded, replicated fleet with zero-downtime
// dataset rollover.
//
// Four pieces compose it:
//
//   - Server: the /v1 dataset HTTP API (extracted from wwbserve so the
//     router and the fleet tests can host shards in-process), extended
//     with an atomically swappable dataset epoch (POST /admin/swap),
//     shard-slice serving (a deterministic (country, month) partition
//     of the snapshot), and the internal /shard/info endpoint the
//     router reads the fleet's epoch and rosters from. A shard renders
//     its /v1/crux scopes (global, plus the countries it owns) from
//     the whole dataset when it builds an epoch, before slicing.
//   - Router: a thin coordinator over N shards × R replicas holding no
//     dataset-derived state but the fleet info. Owned-cell queries
//     (/v1/list, country /v1/crux) are proxied to the owning shard,
//     shard-agnostic ones (/v1/dist, global /v1/crux, /v1/experiment)
//     to any shard; only /v1/site rank profiles fan out, via
//     internal/parallel, and merge in canonical order. Every /v1
//     response is byte-identical to a single process serving the
//     whole dataset. Replicas are health-gated with retry-on-failure,
//     and the fan-out is epoch-checked so a response is never
//     assembled from two dataset epochs. It follows swaps, never
//     makes them.
//   - Supervisor: runs the replicas (cmd/wwbfleet) and is the only
//     way to roll the fleet onto a new artifact: Swap gates it once,
//     on validity and on provenance, and rolls back a failed rollout.
//   - LoadGen/RunLoad: a seed-deterministic zipfian query-mix
//     generator and open-loop replay harness (cmd/wwbload) reporting
//     p50/p99 latency and shed rate against SLOs.
//
// The shard function, merge ordering rule, and swap protocol are
// documented in DESIGN.md §9.
package fleet

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"wwb/internal/world"
)

// Assignment identifies one shard's slice of the fleet: shard Index of
// Count. The zero value (and any Count <= 1) means "the whole
// dataset" — a single unsharded server.
type Assignment struct {
	Index int
	Count int
}

// ParseAssignment parses the wwbserve -shard flag syntax "i/N"
// (0-based index, N >= 1, i < N).
func ParseAssignment(s string) (Assignment, error) {
	i, n, ok := strings.Cut(s, "/")
	if !ok {
		return Assignment{}, fmt.Errorf("invalid shard %q (want i/N, e.g. 0/4)", s)
	}
	idx, err := strconv.Atoi(i)
	if err != nil {
		return Assignment{}, fmt.Errorf("invalid shard index in %q: %v", s, err)
	}
	cnt, err := strconv.Atoi(n)
	if err != nil {
		return Assignment{}, fmt.Errorf("invalid shard count in %q: %v", s, err)
	}
	if cnt < 1 || idx < 0 || idx >= cnt {
		return Assignment{}, fmt.Errorf("shard %q out of range (want 0 <= i < N)", s)
	}
	return Assignment{Index: idx, Count: cnt}, nil
}

// String renders the assignment back in flag syntax.
func (a Assignment) String() string {
	if a.Whole() {
		return "0/1"
	}
	return fmt.Sprintf("%d/%d", a.Index, a.Count)
}

// Whole reports whether the assignment covers the entire dataset.
func (a Assignment) Whole() bool { return a.Count <= 1 }

// Owns reports whether this shard serves the (country, month) cell.
func (a Assignment) Owns(country string, month world.Month) bool {
	return a.Whole() || ShardOf(country, month, a.Count) == a.Index
}

// ShardOf is the fleet's partition function: the shard index owning a
// (country, month) cell among n shards. It is a pure function of the
// cell identity — FNV-1a over "country|month" mod n — so every router,
// shard, and test computes the same owner with no coordination, and
// ownership survives process restarts. Both platforms and both metrics
// of a cell land on the same shard, which keeps /v1/list a single-
// shard query.
func ShardOf(country string, month world.Month, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(country))
	h.Write([]byte{'|'})
	h.Write([]byte(month.String()))
	return int(h.Sum32() % uint32(n))
}

// MonthByName resolves a month rendered by world.Month.String
// ("2021-09" … "2022-08"); ok is false for anything else.
func MonthByName(s string) (world.Month, bool) {
	return world.MonthByName(s)
}
