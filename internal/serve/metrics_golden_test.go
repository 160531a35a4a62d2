package serve

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// update re-blesses the /metrics goldens:
//
//	go test ./internal/serve -run TestMetricsGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("/metrics drifted from %s (re-bless with -update if intended)\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// wallClockValues matches the only /metrics values that depend on how
// long a job took on this host: the finite latency buckets and the sum.
// The +Inf bucket and the count are exact.
var wallClockValues = regexp.MustCompile(`(?m)^(mimdserved_job_latency_ms_(?:bucket\{le="[0-9.]+"\}|sum)) .*$`)

// TestMetricsGolden pins the /metrics bytes — series names, HELP text,
// order, label and number formatting — after one cold run, one warm run
// and one 429. Requests go through Handler() synchronously, so every
// response is counted before the next step reads a counter.
func TestMetricsGolden(t *testing.T) {
	tr := &testRunner{gate: make(chan struct{})}
	h := New(Options{MaxInFlight: 1, QueueDepth: -1, Runner: tr.run}).Handler()
	t.Cleanup(tr.release)
	do := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}

	const spec = `{"kind":"experiment","experiment":"fig7-1","seeds":[1]}`
	cold := make(chan int, 1)
	go func() { cold <- do(http.MethodPost, "/v1/run", spec).Code }()
	waitFor(t, func() bool { return tr.calls.Load() > 0 })
	// The cold run holds the only slot and there is no queue.
	if code := do(http.MethodPost, "/v1/run", `{"kind":"experiment","experiment":"fig7-1","seeds":[2]}`).Code; code != http.StatusTooManyRequests {
		t.Fatalf("overload status %d, want 429", code)
	}
	tr.release()
	if code := <-cold; code != http.StatusOK {
		t.Fatalf("cold run status %d", code)
	}
	if code := do(http.MethodPost, "/v1/run", spec).Code; code != http.StatusOK {
		t.Fatalf("warm run status %d", code)
	}

	got := do(http.MethodGet, "/metrics", "").Body.String()
	checkGolden(t, "metrics.golden", wallClockValues.ReplaceAllString(got, "$1 WALL"))
}

// TestMetricsHistogramGolden pins what TestMetricsGolden has to mask:
// the latency histogram's cumulative buckets and sum for fixed job
// walls, together with the gauges and a request counter with no label
// values yet.
func TestMetricsHistogramGolden(t *testing.T) {
	m := newMetrics()
	m.observeOutcome(3, 1, 1, []time.Duration{
		500 * time.Microsecond, time.Millisecond, 7 * time.Millisecond,
		2500 * time.Millisecond, 20 * time.Second,
	}, 2)
	checkGolden(t, "metrics_histogram.golden", m.Render(3, 4))
}
