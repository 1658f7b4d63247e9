package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wwb/internal/chrome"
)

// writeSnapshot encodes ds to a .wwb file under dir.
func writeSnapshot(t *testing.T, dir, name string, ds *chrome.Dataset) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.EncodeSnapshot(f, chrome.SnapshotProvenance{Tool: "fleet-test"}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// fileLoader is the replicas' snapshot loader: a real file decode
// through the same path-aware resolver production uses, so the tests
// cover .wwb snapshots and .wwbd delta chains alike.
func fileLoader(path string) (*chrome.Dataset, error) {
	ds, _, err := chrome.DecodeAnyPath(path)
	return ds, err
}

// fakeProc is an in-process replica: a real shard Server on a real
// listener, crashed by closing the listener out from under it.
type fakeProc struct {
	srv  *http.Server
	ln   net.Listener
	done chan error
	stop sync.Once
}

func (p *fakeProc) Wait() error { return <-p.done }
func (p *fakeProc) Stop()       { p.stop.Do(func() { p.srv.Close() }) }

// crash kills the replica the way a SIGKILL would: no drain, no
// goodbye — the listener just dies.
func (p *fakeProc) crash() { p.stop.Do(func() { p.srv.Close() }) }

// fakeFleet runs replicas in-process and records the live process per
// slot so tests can crash specific replicas.
type fakeFleet struct {
	t      *testing.T
	shards int
	// loader lets a test poison specific (slot, path) loads to force
	// mid-rollout swap failures.
	loader func(spec ReplicaSpec, path string) (*chrome.Dataset, error)

	mu    sync.Mutex
	procs map[string]*fakeProc // by addr
}

func (ff *fakeFleet) runner(spec ReplicaSpec) (Process, error) {
	ds, err := ff.load(spec, spec.Data)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", spec.Addr)
	if err != nil {
		return nil, err
	}
	srv := NewServer(ds, ServerConfig{
		Shard: Assignment{Index: spec.Shard, Count: ff.shards},
		Month: ds.Opts.DistMonth,
		LoadSnapshot: func(path string) (*chrome.Dataset, error) {
			return ff.load(spec, path)
		},
	})
	hs := &http.Server{Handler: srv.Routes(MiddlewareConfig{})}
	p := &fakeProc{srv: hs, ln: ln, done: make(chan error, 1)}
	go func() { p.done <- hs.Serve(ln) }()
	ff.mu.Lock()
	ff.procs[spec.Addr] = p
	ff.mu.Unlock()
	return p, nil
}

func (ff *fakeFleet) load(spec ReplicaSpec, path string) (*chrome.Dataset, error) {
	if ff.loader != nil {
		return ff.loader(spec, path)
	}
	return fileLoader(path)
}

func (ff *fakeFleet) proc(addr string) *fakeProc {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	return ff.procs[addr]
}

// freeAddrs reserves n distinct loopback ports and releases them so
// the supervisor's replicas can bind them.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// epochOf reads one replica's serving epoch off /shard/info.
func epochOf(t *testing.T, addr string) uint64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/shard/info")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	var epoch uint64
	fmt.Sscanf(resp.Header.Get(EpochHeader), "%d", &epoch)
	return epoch
}

// startSupervisedFleet boots a shards×replicas fleet under a
// supervisor and waits for every replica to answer health checks.
func startSupervisedFleet(t *testing.T, ff *fakeFleet, shards, replicas int, data string) (*Supervisor, [][]string, context.CancelFunc) {
	t.Helper()
	addrs := freeAddrs(t, shards*replicas)
	groups := make([][]string, shards)
	for i := range groups {
		groups[i] = addrs[i*replicas : (i+1)*replicas]
	}
	sup, err := NewSupervisor(SupervisorConfig{
		Shards:        groups,
		Data:          data,
		Runner:        ff.runner,
		ProbeInterval: 20 * time.Millisecond,
		BackoffBase:   10 * time.Millisecond,
		BackoffMax:    200 * time.Millisecond,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() { sup.Run(ctx); close(runDone) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-runDone:
		case <-time.After(10 * time.Second):
			t.Error("supervisor did not stop")
		}
	})
	for _, addr := range addrs {
		addr := addr
		waitFor(t, 10*time.Second, "replica "+addr+" up", func() bool { return epochOf(t, addr) >= 1 })
	}
	return sup, groups, cancel
}

// TestSupervisorRestartsCrashedReplica: a replica killed without
// warning is restarted within the backoff window, serves again, and
// the restart is counted.
func TestSupervisorRestartsCrashedReplica(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())

	dir := t.TempDir()
	dataA := writeSnapshot(t, dir, "A.wwb", fleetDS)
	ff := &fakeFleet{t: t, shards: 2, procs: map[string]*fakeProc{}}
	sup, groups, _ := startSupervisedFleet(t, ff, 2, 2, dataA)

	restartsBefore := mSupRestarts.Value()
	victim := groups[1][0]
	ff.proc(victim).crash()

	waitFor(t, 10*time.Second, "crashed replica restarted", func() bool {
		return mSupRestarts.Value() > restartsBefore && epochOf(t, victim) >= 1
	})
	var found bool
	for _, st := range sup.Status() {
		if st.Addr == victim && st.Restarts >= 1 {
			found = true
		}
	}
	if !found {
		t.Error("restart not attributed to the crashed replica in Status()")
	}
}

// TestSupervisorSwapGateQuarantinesCorruptSnapshot: a corrupt artifact
// never reaches a replica — the scratch-load gate rejects it, the file
// is renamed .bad, and every replica keeps serving its current epoch.
func TestSupervisorSwapGateQuarantinesCorruptSnapshot(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())

	dir := t.TempDir()
	dataA := writeSnapshot(t, dir, "A.wwb", fleetDS)
	ff := &fakeFleet{t: t, shards: 1, procs: map[string]*fakeProc{}}
	sup, groups, _ := startSupervisedFleet(t, ff, 1, 2, dataA)

	// A truncated copy of a valid snapshot: magic intact, payload torn.
	good, err := os.ReadFile(dataA)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(dir, "C.wwb")
	if err := os.WriteFile(corrupt, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	quarantinedBefore := mSupQuarantined.Value()
	out, err := sup.Swap(context.Background(), corrupt)
	if err == nil {
		t.Fatal("corrupt snapshot passed the validation gate")
	}
	if out == nil || out.Quarantined != corrupt+".bad" {
		t.Fatalf("outcome %+v does not report the quarantined file", out)
	}
	if _, err := os.Stat(corrupt + ".bad"); err != nil {
		t.Errorf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(corrupt); !os.IsNotExist(err) {
		t.Errorf("corrupt file still present at its original path (err %v)", err)
	}
	if mSupQuarantined.Value() == quarantinedBefore {
		t.Error("quarantine not counted")
	}
	for _, addr := range groups[0] {
		if e := epochOf(t, addr); e != 1 {
			t.Errorf("replica %s moved to epoch %d during a gated swap", addr, e)
		}
	}
	if sup.CurrentData() != dataA {
		t.Errorf("current data changed to %q", sup.CurrentData())
	}
}

// TestSupervisorSwapAndRollback: a good swap converges the whole fleet
// on the new artifact; a swap that fails mid-rollout on one replica is
// rolled back everywhere — the fleet converges on the previous
// artifact at a strictly newer epoch, so epoch monotonicity survives.
func TestSupervisorSwapAndRollback(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())

	dir := t.TempDir()
	dataA := writeSnapshot(t, dir, "A.wwb", fleetDS)
	dataB := writeSnapshot(t, dir, "B.wwb", altDS)
	poison := writeSnapshot(t, dir, "poison.wwb", altDS)

	// One replica refuses to load the poison artifact: the file is
	// valid (it passes the gate) but that replica's load fails, the
	// canonical mid-rollout failure.
	ff := &fakeFleet{t: t, shards: 2, procs: map[string]*fakeProc{}}
	ff.loader = func(spec ReplicaSpec, path string) (*chrome.Dataset, error) {
		if spec.Shard == 1 && spec.Replica == 1 && strings.Contains(path, "poison") {
			return nil, fmt.Errorf("disk sector went bad")
		}
		return fileLoader(path)
	}
	sup, groups, _ := startSupervisedFleet(t, ff, 2, 2, dataA)

	// Happy path: the fleet converges on B at epoch 2.
	out, err := sup.Swap(context.Background(), dataB)
	if err != nil {
		t.Fatalf("swap to B: %v", err)
	}
	if !out.Complete || out.Epoch != 2 {
		t.Fatalf("swap outcome %+v, want complete at epoch 2", out)
	}
	if sup.CurrentData() != dataB {
		t.Fatalf("current data %q, want %q", sup.CurrentData(), dataB)
	}

	// Poisoned rollout: gate passes, one replica fails, everyone rolls
	// forward to the previous artifact at epoch 4 (3 was the failed
	// target).
	rollbacksBefore := mSupRollbacks.Value()
	out, err = sup.Swap(context.Background(), poison)
	if err == nil {
		t.Fatal("poisoned swap reported success")
	}
	if !out.RolledBack {
		t.Fatalf("outcome %+v not rolled back", out)
	}
	if mSupRollbacks.Value() == rollbacksBefore {
		t.Error("rollback not counted")
	}
	if sup.CurrentData() != dataB {
		t.Errorf("current data %q after rollback, want %q", sup.CurrentData(), dataB)
	}
	for _, g := range groups {
		for _, addr := range g {
			if e := epochOf(t, addr); e != 4 {
				t.Errorf("replica %s at epoch %d after rollback, want 4", addr, e)
			}
		}
	}
}

// startRouterOver fronts a supervised fleet's host:port groups with an
// in-process router.
func startRouterOver(t *testing.T, groups [][]string) *httptest.Server {
	t.Helper()
	urls := make([][]string, len(groups))
	for i, g := range groups {
		for _, addr := range g {
			urls[i] = append(urls[i], "http://"+addr)
		}
	}
	return startRouter(t, urls)
}

// TestSupervisorSwapStatus pins what POST /admin/swap on the
// supervisor answers for each way a swap ends: 200 converged, 422 for a
// corrupt artifact (quarantined), 502 for a rollout that failed on the
// replicas and was rolled back, and 409 for a valid artifact of another
// world. The 502 outcome reports each replica's error as the message of
// the replica's JSON envelope. The provenance gate and /status read
// what the gate kept when the running artifact was admitted, so both
// hold with that file deleted: the gate does not fail open.
func TestSupervisorSwapStatus(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())

	dir := t.TempDir()
	dataA := writeSnapshot(t, dir, "A.wwb", fleetDS)
	dataB := writeSnapshot(t, dir, "B.wwb", altDS)
	poison := writeSnapshot(t, dir, "poison.wwb", altDS)
	otherWorld := writeSnapshotProv(t, dir, "other.wwb", altDS, chrome.SnapshotProvenance{Tool: "fleet-test", WorldSeed: 43})
	good, err := os.ReadFile(dataA)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(dir, "C.wwb")
	if err := os.WriteFile(corrupt, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// Every replica refuses to load the poison artifact.
	ff := &fakeFleet{t: t, shards: 2, procs: map[string]*fakeProc{}}
	ff.loader = func(spec ReplicaSpec, path string) (*chrome.Dataset, error) {
		if path == poison {
			return nil, fmt.Errorf("disk sector went bad")
		}
		return fileLoader(path)
	}
	sup, groups, _ := startSupervisedFleet(t, ff, 2, 1, dataA)
	ts := httptest.NewServer(sup.Routes(MiddlewareConfig{}))
	defer ts.Close()

	for _, tc := range []struct {
		name          string
		data          string
		removeRunning bool // delete the running artifact (B) first
		status        int
		epoch         uint64 // every replica's serving epoch afterwards
	}{
		{"converged", dataB, false, http.StatusOK, 2},
		{"quarantined", corrupt, false, http.StatusUnprocessableEntity, 2},
		{"rolled back", poison, false, http.StatusBadGateway, 3},
		{"wrong world", otherWorld, true, http.StatusConflict, 3},
	} {
		if tc.removeRunning {
			if err := os.Remove(dataB); err != nil {
				t.Fatal(err)
			}
		}
		status, body := postSwap(t, ts.URL, "data="+url.QueryEscape(tc.data))
		if status != tc.status {
			t.Fatalf("%s: status %d (%s), want %d", tc.name, status, body, tc.status)
		}
		for _, g := range groups {
			for _, addr := range g {
				if e := epochOf(t, addr); e != tc.epoch {
					t.Errorf("%s: replica %s at epoch %d, want %d", tc.name, addr, e, tc.epoch)
				}
			}
		}
		if _, err := os.Stat(tc.data); os.IsNotExist(err) != (tc.status == http.StatusUnprocessableEntity) {
			t.Errorf("%s: artifact quarantined = %v, want %v", tc.name, os.IsNotExist(err), tc.status == http.StatusUnprocessableEntity)
		}
		if status != http.StatusBadGateway {
			continue
		}
		var env struct {
			Outcome SwapOutcome `json:"outcome"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		out := env.Outcome
		if out.Complete || !out.RolledBack || out.Epoch != 3 || len(out.Replicas) != 2 {
			t.Fatalf("outcome %s, want incomplete and rolled back at epoch 3 over 2 replicas", body)
		}
		want := "swap failed: loading " + poison + ": disk sector went bad"
		for _, r := range out.Replicas {
			if r.Status != http.StatusInternalServerError || r.Error != want {
				t.Errorf("replica %s: status %d error %q, want 500 %q", r.Replica, r.Status, r.Error, want)
			}
		}
	}

	_, _, body := fetch(t, ts.URL, "/status")
	var st struct {
		Data     string              `json:"data"`
		Artifact chrome.SnapshotInfo `json:"artifact"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if want := (chrome.SnapshotInfo{Format: chrome.FormatWWB, Version: chrome.SnapshotVersion, Provenance: chrome.SnapshotProvenance{Tool: "fleet-test"}}); st.Data != dataB || st.Artifact != want {
		t.Errorf("status reports %s, want data %q and artifact %+v", body, dataB, want)
	}
}
