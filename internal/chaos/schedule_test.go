package chaos

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current schedule")

// scheduleOps is a fixed slate of operation keys in the shape the
// router and the load harness produce (host, method, request URI).
var scheduleOps = []string{
	"127.0.0.1:8081 GET /v1/list?country=US&platform=windows&metric=loads&n=5",
	"127.0.0.1:8082 GET /v1/list?country=US&platform=windows&metric=loads&n=5",
	"127.0.0.1:8081 GET /v1/list?country=BR&platform=android&metric=time&n=100",
	"127.0.0.1:8083 GET /v1/site?domain=google.com",
	"127.0.0.1:8081 GET /v1/dist?platform=windows&metric=loads",
	"127.0.0.1:8082 GET /v1/crux?country=JP&n=1000",
	"127.0.0.1:8081 GET /v1/countries",
	"127.0.0.1:8084 GET /v1/experiments",
	"127.0.0.1:8081 GET /v1/experiment/fig10",
	"127.0.0.1:8082 GET /healthz",
	"127.0.0.1:8081 GET /shard/lists",
	"127.0.0.1:8083 GET /shard/manifest",
	"127.0.0.1:8081 POST /admin/swap",
	"localhost:9000 GET /v1/list?country=DE&platform=windows&metric=loads&n=20",
	"localhost:9000 GET /v1/site?domain=youtube.com",
	"10.0.0.7:80 GET /v1/list?country=IN&platform=android&metric=loads&n=50",
	"10.0.0.7:80 HEAD /healthz",
	"[::1]:8081 GET /v1/dist?platform=android&metric=time",
	"shard-3.internal:8443 GET /v1/list?country=FR&platform=windows&metric=time&n=10",
	"x GET /",
}

// httpFaultNames names the HTTP fault family's rows; index 0 is no fault.
var httpFaultNames = []string{"none", "refuse", "err5xx", "truncate", "garble", "slow"}

// TestTransportScheduleGolden pins the transport's fault schedule,
// with the delay of every slow fault, for a grid of seeds, rates, ops
// and attempts.
func TestTransportScheduleGolden(t *testing.T) {
	var b strings.Builder
	for _, seed := range []uint64{1, 7, 11} {
		for _, rate := range []float64{0.05, 0.3, 1.0} {
			tr := NewTransport(FlakyTransport(seed, rate), nil).(*Transport)
			for _, op := range scheduleOps {
				for attempt := 1; attempt <= 4; attempt++ {
					f, rng := tr.decide(op, attempt)
					var wait time.Duration
					if f == faultSlow {
						wait = SlowDelay(rng, slowLatency)
					}
					fmt.Fprintf(&b, "seed=%d rate=%g op=%q attempt=%d fault=%s wait=%d\n", seed, rate, op, attempt, httpFaultNames[f], wait)
				}
			}
		}
	}
	const path = "testdata/transport_schedule.golden"
	got := b.String()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("%s: schedule changed", path)
	}
}
