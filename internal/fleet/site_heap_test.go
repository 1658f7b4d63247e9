package fleet

import (
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
)

// TestSiteLookupsRetainNoHeap: /v1/site resolves client-supplied
// domains, so nothing on its path may keep per-domain state. 100K
// requests, each for a domain never asked before, must leave the heap
// retained after a collection where it was.
func TestSiteLookupsRetainNoHeap(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(prevWriter())
	h := NewServer(fleetDS, ServerConfig{Month: fleetDS.Opts.DistMonth}).Routes(MiddlewareConfig{})
	get := func(i int) {
		req := httptest.NewRequest(http.MethodGet, "/v1/site?domain=probe"+strconv.Itoa(i)+".co.uk", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	retained := func() uint64 {
		runtime.GC()
		runtime.GC() // a second cycle empties what the first moved to sync.Pool victims
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	// Warm up: the per-cell rank maps and the metrics series are built
	// once per server, not per domain.
	for i := 0; i < 1000; i++ {
		get(i)
	}
	before := retained()
	const requests = 100_000
	for i := 1000; i < 1000+requests; i++ {
		get(i)
	}
	after := retained()

	const bound = 4 << 20
	if after > before+bound {
		t.Fatalf("%d distinct /v1/site domains left %.1f MiB of heap retained (%.1f → %.1f MiB), want under %d MiB",
			requests, float64(after-before)/(1<<20), float64(before)/(1<<20), float64(after)/(1<<20), bound>>20)
	}
}
