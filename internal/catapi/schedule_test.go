package catapi

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"wwb/internal/chaos"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current schedule")

// lookupFaultNames names the lookup fault family's rows; index 0 is no
// fault.
var lookupFaultNames = []string{"none", "panic", "transient", "rate-limited", "slow"}

// scheduleDomains is a fixed slate of domains to draw lookup faults for.
var scheduleDomains = []string{
	"google.com", "youtube.com", "facebook.com", "usps.com", "example.com",
	"wikipedia.org", "amazon.co.jp", "bbc.co.uk", "naver.com", "vk.com",
	"xn--80ak6aa92e.com", "a.b.c.example.net", "netflix.com", "twitch.tv",
	"gov.br", "baidu.com", "yandex.ru", "github.io", "localhost", "",
}

// TestLookupScheduleGolden pins the categorisation transport's fault
// schedule, with the wait every slow or rate-limit fault carries, for
// a grid of seeds, rates, domains and attempts.
func TestLookupScheduleGolden(t *testing.T) {
	var b strings.Builder
	for _, seed := range []uint64{1, 7, 11} {
		for _, rate := range []float64{0.05, 0.3, 1.0} {
			tr := NewFlakyTransport(nil, chaos.Flaky(seed, rate))
			for _, d := range scheduleDomains {
				for attempt := 1; attempt <= 4; attempt++ {
					f, wait := tr.decide(d, attempt)
					fmt.Fprintf(&b, "seed=%d rate=%g domain=%q attempt=%d fault=%s wait=%d\n", seed, rate, d, attempt, lookupFaultNames[f], wait)
				}
			}
		}
	}
	const path = "testdata/lookup_schedule.golden"
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
