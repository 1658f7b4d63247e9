package fleet

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"wwb/internal/chrome"
	"wwb/internal/telemetry"
	"wwb/internal/world"
)

// altDS is a second dataset over the same world with a different
// sampling seed: every list value differs from fleetDS, so a response
// assembled from a mix of the two epochs cannot match either oracle.
var altDS = func() *chrome.Dataset {
	opts := fleetOpts
	opts.Seed = 2
	return chrome.Assemble(fleetWorld, telemetry.DefaultConfig(), opts)
}()

// testLoader resolves the symbolic artifact paths the swap tests use.
func testLoader(path string) (*chrome.Dataset, error) {
	switch path {
	case "A.wwb":
		return fleetDS, nil
	case "B.wwb":
		return altDS, nil
	default:
		return nil, fmt.Errorf("no such artifact %q", path)
	}
}

func postSwap(t *testing.T, base, query string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/admin/swap?"+query, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// TestSwapProtocol pins the epoch rules: auto-increment, idempotent
// retry, stale-epoch conflict, and failed-load rollback.
func TestSwapProtocol(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())

	srv := NewServer(fleetDS, ServerConfig{Month: fleetDS.Opts.DistMonth, LoadSnapshot: testLoader})
	ts := httptest.NewServer(srv.Routes(MiddlewareConfig{}))
	defer ts.Close()

	if status, body := postSwap(t, ts.URL, ""); status != http.StatusBadRequest {
		t.Fatalf("swap without data: status %d (%s), want 400", status, body)
	}

	// Auto-increment: no epoch given, current 1 → 2.
	status, body := postSwap(t, ts.URL, "data=B.wwb")
	if status != http.StatusOK {
		t.Fatalf("first swap: status %d (%s)", status, body)
	}
	if srv.Epoch() != 2 {
		t.Fatalf("epoch after swap = %d, want 2", srv.Epoch())
	}

	// Idempotent retry of the completed swap: same epoch, same path.
	if status, body = postSwap(t, ts.URL, "data=B.wwb&epoch=2"); status != http.StatusOK {
		t.Fatalf("idempotent retry: status %d (%s), want 200", status, body)
	}
	if srv.Epoch() != 2 {
		t.Fatalf("idempotent retry moved the epoch to %d", srv.Epoch())
	}

	// A stale target epoch conflicts.
	if status, _ = postSwap(t, ts.URL, "data=A.wwb&epoch=1"); status != http.StatusConflict {
		t.Fatalf("stale epoch: status %d, want 409", status)
	}

	// A failed load reports 500 and keeps the old epoch serving.
	if status, _ = postSwap(t, ts.URL, "data=missing.wwb"); status != http.StatusInternalServerError {
		t.Fatalf("failed load: status %d, want 500", status)
	}
	if srv.Epoch() != 2 || srv.Dataset().List(fleetDS.Countries[0], world.Windows, world.PageLoads, fleetDS.Opts.DistMonth) == nil {
		t.Fatalf("failed load disturbed the serving epoch")
	}

	// Without a loader the endpoint is 501.
	bare := httptest.NewServer(
		NewServer(fleetDS, ServerConfig{Month: fleetDS.Opts.DistMonth}).Routes(MiddlewareConfig{}))
	defer bare.Close()
	if status, _ = postSwap(t, bare.URL, "data=B.wwb"); status != http.StatusNotImplemented {
		t.Fatalf("swap without loader: status %d, want 501", status)
	}
}

// differingSiteDomain finds a domain whose /v1/site profile differs
// between the two swap datasets — a site whose rank happens to be
// identical under both sampling seeds would make the torn-read check
// vacuous for that path.
func differingSiteDomain(t *testing.T) string {
	t.Helper()
	tsA := httptest.NewServer(
		NewServer(fleetDS, ServerConfig{Month: fleetDS.Opts.DistMonth}).Routes(MiddlewareConfig{}))
	defer tsA.Close()
	tsB := httptest.NewServer(
		NewServer(altDS, ServerConfig{Month: altDS.Opts.DistMonth}).Routes(MiddlewareConfig{}))
	defer tsB.Close()
	list := fleetDS.List(fleetDS.Countries[0], world.Windows, world.PageLoads, fleetDS.Opts.DistMonth)
	for _, e := range list.TopN(50) {
		path := "/v1/site?domain=" + e.Domain
		_, _, a := fetch(t, tsA.URL, path)
		_, _, b := fetch(t, tsB.URL, path)
		if string(a) != string(b) {
			return e.Domain
		}
	}
	t.Fatal("no domain with a differing site profile in the top 50")
	return ""
}

// oracle captures the reference bodies both epochs must produce for
// the hammered paths, fetched from quiet single-purpose servers.
func oracle(t *testing.T, paths []string) (refA, refB map[string]string) {
	t.Helper()
	refA, refB = map[string]string{}, map[string]string{}
	for ds, ref := range map[*chrome.Dataset]map[string]string{fleetDS: refA, altDS: refB} {
		ts := httptest.NewServer(
			NewServer(ds, ServerConfig{Month: ds.Opts.DistMonth}).Routes(MiddlewareConfig{}))
		for _, p := range paths {
			status, _, body := fetch(t, ts.URL, p)
			if status != http.StatusOK {
				t.Fatalf("oracle %s: status %d", p, status)
			}
			ref[p] = string(body)
		}
		ts.Close()
	}
	for _, p := range paths {
		if refA[p] == refB[p] {
			t.Fatalf("oracle %s identical across datasets; torn reads would be invisible", p)
		}
	}
	return refA, refB
}

// hammer runs readers against base while swapper flips epochs, and
// fails on any response that is neither wholly epoch-A nor wholly
// epoch-B, or any non-shed error. Epoch parity decides the expected
// body: odd epochs serve A.wwb, even epochs B.wwb.
func hammer(t *testing.T, base string, paths []string, swaps int, swap func(i int)) {
	t.Helper()
	refA, refB := oracle(t, paths)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				path := paths[(r+i)%len(paths)]
				resp, err := client.Get(base + path)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					epoch, _ := strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64)
					want := refA[path]
					if epoch%2 == 0 {
						want = refB[path]
					}
					if string(body) != want {
						t.Errorf("%s: epoch %d response is torn or stale\n got: %.120s",
							path, epoch, body)
						return
					}
				case http.StatusServiceUnavailable:
					// A shed mid-swap is allowed; a hard error is not.
				default:
					t.Errorf("%s: status %d (%s)", path, resp.StatusCode, body)
					return
				}
			}
		}(r)
	}

	for i := 0; i < swaps; i++ {
		swap(i)
	}
	close(done)
	wg.Wait()
}

// TestHotSwapHammerSingleServer hammers one server with concurrent
// queries while the dataset epoch flips in a loop; every 200 must be
// wholly from one epoch (run under -race in CI).
func TestHotSwapHammerSingleServer(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())

	srv := NewServer(fleetDS, ServerConfig{Month: fleetDS.Opts.DistMonth, LoadSnapshot: testLoader})
	ts := httptest.NewServer(srv.Routes(MiddlewareConfig{}))
	defer ts.Close()

	paths := []string{
		"/v1/list?country=" + fleetDS.Countries[0] + "&n=20",
		"/v1/list?country=" + fleetDS.Countries[1] + "&month=2022-01&n=20",
		"/v1/dist?n=20",
		"/v1/crux?country=" + fleetDS.Countries[0],
	}
	hammer(t, ts.URL, paths, 12, func(i int) {
		data := "B.wwb"
		if i%2 == 1 {
			data = "A.wwb"
		}
		if status, body := postSwap(t, ts.URL, "data="+data); status != http.StatusOK {
			t.Fatalf("swap %d: status %d (%s)", i, status, body)
		}
	})
	if srv.Epoch() != 13 {
		t.Errorf("final epoch %d, want 13 (boot + 12 swaps)", srv.Epoch())
	}
}

// TestHotSwapHammerFleet runs the same discipline through a router
// over a supervised two-shard fleet while the supervisor swaps it:
// neither the cross-shard /v1/site merge nor the routed /v1/list and
// /v1/crux may combine or confuse epochs, even while the whole fleet
// rolls over repeatedly.
func TestHotSwapHammerFleet(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())

	dir := t.TempDir()
	dataA := writeSnapshot(t, dir, "A.wwb", fleetDS)
	dataB := writeSnapshot(t, dir, "B.wwb", altDS)
	ff := &fakeFleet{t: t, shards: 2, procs: map[string]*fakeProc{}}
	sup, groups, _ := startSupervisedFleet(t, ff, 2, 1, dataA)
	router := startRouterOver(t, groups)

	paths := []string{
		"/v1/list?country=" + fleetDS.Countries[0] + "&n=20",
		"/v1/site?domain=" + differingSiteDomain(t),
		"/v1/crux?country=" + fleetDS.Countries[0],
		"/v1/crux",
	}
	hammer(t, router.URL, paths, 10, func(i int) {
		data := dataB
		if i%2 == 1 {
			data = dataA
		}
		out, err := sup.Swap(context.Background(), data)
		if err != nil {
			t.Fatalf("fleet swap %d: %v", i, err)
		}
		if !out.Complete {
			t.Fatalf("fleet swap %d incomplete: %+v", i, out)
		}
	})
}
