package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wwb/internal/chrome"
	"wwb/internal/metrics"
	"wwb/internal/parallel"
)

var (
	mSupRestarts = metrics.Default.Counter(
		"fleet_supervisor_restarts_total",
		"Replica processes restarted after a crash.")
	mSupRollbacks = metrics.Default.Counter(
		"fleet_supervisor_rollbacks_total",
		"Fleet swaps rolled back after a mid-rollout failure.")
	mSupQuarantined = metrics.Default.Counter(
		"fleet_supervisor_quarantined_total",
		"Snapshot artifacts quarantined (.bad) by the swap validation gate.")
	mSupSwapsOK = metrics.Default.Counter(
		"fleet_supervisor_swaps_total",
		"Fleet swaps completed on every replica.")
	mSupReplicasUp = metrics.Default.Gauge(
		"fleet_supervisor_replicas_up",
		"Replicas currently passing health probes.")
	mSupProbeFailures = metrics.Default.Counter(
		"fleet_supervisor_probe_failures_total",
		"Health probes that failed (timeout, refusal, or non-200).")
)

// ReplicaSpec identifies one supervised replica slot: which shard it
// serves, its replica index within the shard, the address it must
// listen on, and the artifact it should serve at boot.
type ReplicaSpec struct {
	Shard   int
	Replica int
	Addr    string
	Data    string
}

// Process is one running replica the supervisor can wait on and stop.
// The production implementation wraps os/exec; tests substitute
// in-process servers.
type Process interface {
	// Wait blocks until the process exits and returns its exit error.
	Wait() error
	// Stop asks the process to terminate (idempotent).
	Stop()
}

// Runner launches a replica process for one spec. It is called again
// after every crash, so it must be safe to re-invoke with the same
// address once the previous process is gone.
type Runner func(spec ReplicaSpec) (Process, error)

// SupervisorConfig wires a Supervisor to its fleet.
type SupervisorConfig struct {
	// Shards lists, per shard index, the listen addresses
	// (host:port) of that shard's replicas.
	Shards [][]string
	// Data is the artifact every replica serves at boot; it becomes
	// the initial rollback target for failed swaps.
	Data string
	// Runner launches one replica process.
	Runner Runner
	// Client performs health probes and swap calls; nil uses a
	// 10s-timeout client.
	Client *http.Client
	// ProbeInterval is the health-probe period (default 500ms).
	ProbeInterval time.Duration
	// BackoffBase / BackoffMax bound the exponential restart backoff
	// (defaults 100ms / 5s). Jitter is deterministic per
	// (Seed, slot, attempt) so restart storms never synchronise yet
	// replay identically under a fixed seed.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// StableAfter is how long a replica must stay up for its backoff
	// to reset (default 10s).
	StableAfter time.Duration
	// Seed keys the restart jitter.
	Seed uint64
}

// slot is one supervised replica's mutable state.
type slot struct {
	spec     ReplicaSpec
	restarts atomic.Uint64
	healthy  atomic.Bool

	mu   sync.Mutex
	proc Process
}

func (sl *slot) setProc(p Process) {
	sl.mu.Lock()
	sl.proc = p
	sl.mu.Unlock()
}

func (sl *slot) stopProc() {
	sl.mu.Lock()
	p := sl.proc
	sl.mu.Unlock()
	if p != nil {
		p.Stop()
	}
}

// Supervisor keeps an N-shard × R-replica fleet alive: it launches
// every replica process, restarts crashed ones with exponential
// backoff and deterministic jitter, health-probes the fleet, and
// performs validation-gated swaps with automatic rollback — the
// process-level complement to the router's request-level resilience.
type Supervisor struct {
	cfg    SupervisorConfig
	client *http.Client
	slots  []*slot

	// dataMu guards currentData, the artifact the fleet last converged
	// on — the rollback target for a mid-rollout failure.
	dataMu      sync.Mutex
	currentData string

	// swapMu serialises fleet swaps; concurrent rollouts would race
	// their target epochs.
	swapMu sync.Mutex
}

// NewSupervisor builds a supervisor for the configured fleet. Runner
// is required; Data may be empty when the replicas boot self-assembled
// datasets (rollback is then unavailable until the first good swap).
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("supervisor needs at least one shard")
	}
	if cfg.Runner == nil {
		return nil, fmt.Errorf("supervisor needs a Runner")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	if cfg.StableAfter <= 0 {
		cfg.StableAfter = 10 * time.Second
	}
	s := &Supervisor{cfg: cfg, client: cfg.Client, currentData: cfg.Data}
	for i, reps := range cfg.Shards {
		if len(reps) == 0 {
			return nil, fmt.Errorf("shard %d has no replicas", i)
		}
		for j, addr := range reps {
			s.slots = append(s.slots, &slot{
				spec: ReplicaSpec{Shard: i, Replica: j, Addr: addr, Data: cfg.Data},
			})
		}
	}
	return s, nil
}

// CurrentData returns the artifact the fleet last converged on.
func (s *Supervisor) CurrentData() string {
	s.dataMu.Lock()
	defer s.dataMu.Unlock()
	return s.currentData
}

func (s *Supervisor) setCurrentData(path string) {
	s.dataMu.Lock()
	s.currentData = path
	s.dataMu.Unlock()
}

// Run launches every replica and supervises the fleet until ctx is
// cancelled, then stops all replica processes and returns.
func (s *Supervisor) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	for _, sl := range s.slots {
		wg.Add(1)
		go func(sl *slot) {
			defer wg.Done()
			s.supervise(ctx, sl)
		}(sl)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.probeLoop(ctx)
	}()
	wg.Wait()
	return ctx.Err()
}

// supervise is one slot's restart loop: launch, wait, back off,
// relaunch — forever, until the supervisor shuts down. A replica that
// stayed up past StableAfter resets the backoff, so a one-off crash
// after a week does not pay for last month's crash loop.
func (s *Supervisor) supervise(ctx context.Context, sl *slot) {
	attempt := 0
	for ctx.Err() == nil {
		spec := sl.spec
		spec.Data = s.CurrentData()
		p, err := s.cfg.Runner(spec)
		if err != nil {
			log.Printf("shard %d replica %d (%s): launch failed: %v", spec.Shard, spec.Replica, spec.Addr, err)
		} else {
			sl.setProc(p)
			// Stop the process when the supervisor shuts down, even if
			// Wait is still blocked on it.
			stopDone := make(chan struct{})
			go func() {
				select {
				case <-ctx.Done():
					p.Stop()
				case <-stopDone:
				}
			}()
			started := time.Now()
			werr := p.Wait()
			close(stopDone)
			if ctx.Err() != nil {
				return
			}
			mSupRestarts.Inc()
			sl.restarts.Add(1)
			sl.healthy.Store(false)
			if time.Since(started) >= s.cfg.StableAfter {
				attempt = 0
			}
			log.Printf("shard %d replica %d (%s): exited (%v) after %s; restarting",
				spec.Shard, spec.Replica, spec.Addr, werr, time.Since(started).Round(time.Millisecond))
		}
		d := s.backoff(sl, attempt)
		attempt++
		select {
		case <-ctx.Done():
			return
		case <-time.After(d):
		}
	}
}

// backoff computes the restart delay for one slot's attempt:
// exponential from BackoffBase, capped at BackoffMax, plus up to 25%
// deterministic jitter keyed by (Seed, slot, attempt) — restarting
// replicas spread out without a shared RNG, and the schedule replays
// identically under a fixed seed.
func (s *Supervisor) backoff(sl *slot, attempt int) time.Duration {
	d := s.cfg.BackoffBase << uint(min(attempt, 16))
	if d > s.cfg.BackoffMax || d <= 0 {
		d = s.cfg.BackoffMax
	}
	key := fmt.Sprintf("%d|%d.%d|%d", s.cfg.Seed, sl.spec.Shard, sl.spec.Replica, attempt)
	frac := float64(fnvString(key)%1024) / 1024
	return d + time.Duration(frac*float64(d)/4)
}

// probeLoop health-probes every replica each ProbeInterval and keeps
// the fleet_supervisor_replicas_up gauge current.
func (s *Supervisor) probeLoop(ctx context.Context) {
	t := time.NewTicker(s.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		up := 0
		for _, sl := range s.slots {
			ok := s.probe(ctx, sl.spec.Addr)
			sl.healthy.Store(ok)
			if ok {
				up++
			} else {
				mSupProbeFailures.Inc()
			}
		}
		mSupReplicasUp.Set(int64(up))
	}
}

func (s *Supervisor) probe(ctx context.Context, addr string) bool {
	pctx, cancel := context.WithTimeout(ctx, s.cfg.ProbeInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, "http://"+addr+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// ReplicaStatus is one replica's supervised state, as reported by
// GET /status.
type ReplicaStatus struct {
	Shard    int    `json:"shard"`
	Replica  int    `json:"replica"`
	Addr     string `json:"addr"`
	Healthy  bool   `json:"healthy"`
	Restarts uint64 `json:"restarts"`
}

// Status reports every replica's supervised state, ordered by
// (shard, replica).
func (s *Supervisor) Status() []ReplicaStatus {
	out := make([]ReplicaStatus, 0, len(s.slots))
	for _, sl := range s.slots {
		out = append(out, ReplicaStatus{
			Shard:    sl.spec.Shard,
			Replica:  sl.spec.Replica,
			Addr:     sl.spec.Addr,
			Healthy:  sl.healthy.Load(),
			Restarts: sl.restarts.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Shard != out[j].Shard {
			return out[i].Shard < out[j].Shard
		}
		return out[i].Replica < out[j].Replica
	})
	return out
}

// ValidateSnapshot is the swap gate: a scratch decode of the artifact
// on the supervisor, before any replica is asked to load it. A fleet
// must never discover a corrupt snapshot one replica at a time,
// mid-rollout. Delta artifacts (.wwbd) resolve their full base chain
// here — a delta whose base is missing, corrupt, or the wrong lineage
// is rejected at the gate, exactly as a replica's loader would reject
// it.
func ValidateSnapshot(path string) (*chrome.SnapshotInfo, error) {
	_, info, err := chrome.DecodeAnyPath(path)
	if err != nil {
		return nil, err
	}
	return info, nil
}

// Quarantine renames a corrupt artifact out of the rollout path
// (path → path.bad) so no later swap — human or automated — can pick
// it up again, and logs what is known about its provenance.
func Quarantine(path string, cause error) string {
	bad := path + ".bad"
	if err := os.Rename(path, bad); err != nil {
		log.Printf("quarantine of %s failed: %v (corrupt artifact left in place)", path, err)
		bad = path
	}
	size := int64(-1)
	if fi, err := os.Stat(bad); err == nil {
		size = fi.Size()
	}
	mSupQuarantined.Inc()
	log.Printf("quarantined %s -> %s (%d bytes): %v", path, bad, size, cause)
	return bad
}

// SwapOutcome is the result of one fleet swap attempt.
type SwapOutcome struct {
	Epoch       uint64       `json:"epoch"`
	Data        string       `json:"data"`
	Complete    bool         `json:"complete"`
	RolledBack  bool         `json:"rolledBack"`
	Quarantined string       `json:"quarantined,omitempty"`
	Replicas    []swapResult `json:"replicas"`
}

// Swap rolls the whole fleet to a new artifact with the crash-safe
// protocol:
//
//  1. Gate: scratch-load the artifact here first. A corrupt snapshot
//     is quarantined (renamed .bad, provenance logged) and no replica
//     ever sees it.
//  2. Roll out: POST /admin/swap?data=…&epoch=target (current fleet
//     max + 1) to every replica in parallel — the fixed target keeps
//     the operation idempotent per replica.
//  3. On any replica failing, roll back: re-swap every replica to the
//     previous artifact at epoch target+1. Rolling forward to a new
//     epoch (rather than reusing old numbers) preserves the epoch
//     monotonicity the stale-409 protection depends on.
func (s *Supervisor) Swap(ctx context.Context, path string) (*SwapOutcome, error) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()

	info, err := ValidateSnapshot(path)
	if err != nil {
		bad := Quarantine(path, err)
		return &SwapOutcome{Data: path, Quarantined: bad},
			fmt.Errorf("validation gate rejected %s: %w", path, err)
	}
	log.Printf("validated %s: format %v v%d (chain %d, tool %q, world seed %d, scale %q)",
		path, info.Format, info.Version, info.Chain, info.Provenance.Tool,
		info.Provenance.WorldSeed, info.Provenance.Scale)

	// Provenance gate: the proposed artifact must descend from the same
	// world as the one the fleet currently serves. A delta's binding to
	// its own base is already checked by the chain resolution above;
	// this check catches the remaining mistake — rolling a healthy
	// fleet onto a perfectly valid snapshot of a different universe.
	// Artifacts without provenance (no producing tool) are exempt.
	if prev := s.CurrentData(); prev != "" && prev != path && info.Provenance.Tool != "" {
		if prevInfo, perr := ValidateSnapshot(prev); perr != nil {
			log.Printf("provenance gate skipped: current artifact %s unreadable: %v", prev, perr)
		} else if prevInfo.Provenance.Tool != "" &&
			(prevInfo.Provenance.WorldSeed != info.Provenance.WorldSeed ||
				prevInfo.Provenance.Scale != info.Provenance.Scale) {
			return &SwapOutcome{Data: path}, fmt.Errorf(
				"provenance gate rejected %s: world seed %d scale %q does not match the running fleet's %s (seed %d scale %q)",
				path, info.Provenance.WorldSeed, info.Provenance.Scale,
				prev, prevInfo.Provenance.WorldSeed, prevInfo.Provenance.Scale)
		}
	}

	epoch, err := s.maxEpoch(ctx)
	if err != nil {
		return nil, err
	}
	target := epoch + 1
	results := s.swapAll(ctx, path, target)
	out := &SwapOutcome{Epoch: target, Data: path, Complete: true, Replicas: results}
	for _, r := range results {
		if r.Status != http.StatusOK {
			out.Complete = false
		}
	}
	if out.Complete {
		s.setCurrentData(path)
		mSupSwapsOK.Inc()
		return out, nil
	}

	prev := s.CurrentData()
	if prev == "" || prev == path {
		return out, fmt.Errorf("swap to %s failed on %d replica(s) and no previous artifact is available to roll back to",
			path, countFailed(results))
	}
	rbResults := s.swapAll(ctx, prev, target+1)
	mSupRollbacks.Inc()
	out.RolledBack = true
	for _, r := range rbResults {
		if r.Status != http.StatusOK {
			return out, fmt.Errorf("swap to %s failed AND rollback to %s is incomplete on %s: fleet needs attention",
				path, prev, r.Replica)
		}
	}
	log.Printf("swap to %s failed on %d replica(s); fleet rolled back to %s at epoch %d",
		path, countFailed(results), prev, target+1)
	return out, fmt.Errorf("swap to %s failed on %d replica(s); rolled back to %s", path, countFailed(results), prev)
}

func countFailed(results []swapResult) int {
	n := 0
	for _, r := range results {
		if r.Status != http.StatusOK {
			n++
		}
	}
	return n
}

// maxEpoch discovers the fleet's maximum serving epoch so swap targets
// stay strictly monotonic even after partial rollouts.
func (s *Supervisor) maxEpoch(ctx context.Context) (uint64, error) {
	var maxE atomic.Uint64
	parallel.ForEach(len(s.slots), func(i int) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			"http://"+s.slots[i].spec.Addr+"/shard/info", nil)
		if err != nil {
			return
		}
		resp, err := s.client.Do(req)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		epoch, _ := strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64)
		for {
			cur := maxE.Load()
			if epoch <= cur || maxE.CompareAndSwap(cur, epoch) {
				break
			}
		}
	})
	if maxE.Load() == 0 {
		return 0, fmt.Errorf("no replica reachable to establish the current epoch")
	}
	return maxE.Load(), nil
}

// swapAll posts the swap to every replica in parallel and reports one
// result per replica.
func (s *Supervisor) swapAll(ctx context.Context, path string, epoch uint64) []swapResult {
	uri := "/admin/swap?data=" + url.QueryEscape(path) + "&epoch=" + strconv.FormatUint(epoch, 10)
	return parallel.Map(len(s.slots), func(i int) swapResult {
		sl := s.slots[i]
		res := swapResult{Shard: sl.spec.Shard, Replica: sl.spec.Addr}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+sl.spec.Addr+uri, nil)
		if err != nil {
			res.Error = err.Error()
			return res
		}
		resp, err := s.client.Do(req)
		if err != nil {
			res.Error = err.Error()
			return res
		}
		defer resp.Body.Close()
		res.Status = resp.StatusCode
		if resp.StatusCode != http.StatusOK {
			var env struct {
				Error string `json:"error"`
			}
			if jerr := json.NewDecoder(resp.Body).Decode(&env); jerr == nil && env.Error != "" {
				res.Error = env.Error
			} else {
				res.Error = resp.Status
			}
		}
		return res
	})
}

// Routes is the supervisor's own admin surface: health, metrics, fleet
// status, and the validation-gated swap endpoint.
func (s *Supervisor) Routes(mcfg MiddlewareConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.Handle("GET /metrics", metrics.Handler(metrics.Default))
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]any{
			"role":     "supervisor",
			"shards":   len(s.cfg.Shards),
			"data":     s.CurrentData(),
			"replicas": s.Status(),
		})
	})
	mux.HandleFunc("POST /admin/swap", func(w http.ResponseWriter, r *http.Request) {
		path := r.FormValue("data")
		if path == "" {
			HTTPError(w, http.StatusBadRequest, "missing data parameter (path to the new artifact)")
			return
		}
		out, err := s.Swap(r.Context(), path)
		if err != nil {
			status := http.StatusBadGateway
			if out != nil && out.Quarantined != "" {
				status = http.StatusUnprocessableEntity
			}
			WriteJSON(w, status, map[string]any{"error": err.Error(), "outcome": out})
			return
		}
		WriteJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		HTTPError(w, http.StatusNotFound, "no such endpoint %s", r.URL.Path)
	})
	return WithMiddleware(mux, mcfg)
}
