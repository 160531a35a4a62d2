package metrics

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentInc hammers every mutable series kind from GOMAXPROCS
// goroutines while another renders; run under -race.
func TestConcurrentInc(t *testing.T) {
	var r Registry
	c := r.Counter("c_total", "A counter.")
	v := r.CounterVec("v_total", "A vec.", "code")
	h := r.Histogram("h_ms", "A histogram.", []float64{1, 10})
	const each = 1000
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				v.Inc("200")
				h.Observe(5)
				if i%100 == 0 {
					r.Render(nil)
				}
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), int64(workers*each); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
}

func TestRender(t *testing.T) {
	var r Registry
	codes := r.CounterVec("req_total", "Responses by code.", "code")
	depth := r.Gauge("depth", "Queue depth.")
	r.Gauge("unset", "A gauge Render is not given.")
	hits := r.Counter("hits_total", "Hits.")
	runs := r.Counter("runs_total", "Runs.")
	r.Ratio("hit_ratio", "Hits over hits plus runs.", hits, runs)
	lat := r.Histogram("lat_ms", "Latency.", []float64{1, 2.5, 10})

	// Registered out of order: label values must render sorted.
	for _, code := range []string{"503", "200", "429", "200"} {
		codes.Inc(code)
	}
	hits.Inc()
	runs.Add(3)
	for _, ms := range []float64{0.5, 1, 2, 7, 99} { // 1 is inside le="1"
		lat.Observe(ms)
	}

	const want = `# HELP req_total Responses by code.
# TYPE req_total counter
req_total{code="200"} 2
req_total{code="429"} 1
req_total{code="503"} 1
# HELP depth Queue depth.
# TYPE depth gauge
depth 7
# HELP unset A gauge Render is not given.
# TYPE unset gauge
unset 0
# HELP hits_total Hits.
# TYPE hits_total counter
hits_total 1
# HELP runs_total Runs.
# TYPE runs_total counter
runs_total 3
# HELP hit_ratio Hits over hits plus runs.
# TYPE hit_ratio gauge
hit_ratio 0.25
# HELP lat_ms Latency.
# TYPE lat_ms histogram
lat_ms_bucket{le="1"} 2
lat_ms_bucket{le="2.5"} 3
lat_ms_bucket{le="10"} 4
lat_ms_bucket{le="+Inf"} 5
lat_ms_sum 109.5
lat_ms_count 5
`
	if got := r.Render(map[*Gauge]int64{depth: 7}); got != want {
		t.Errorf("Render:\n%s\nwant:\n%s", got, want)
	}
}

func TestRatioBeforeAnyCount(t *testing.T) {
	var r Registry
	r.Ratio("ratio", "r", r.Counter("a_total", "a"), r.Counter("b_total", "b"))
	const tail = "# TYPE ratio gauge\nratio 0\n"
	if got := r.Render(nil); !strings.HasSuffix(got, tail) {
		t.Errorf("Render = %q, want suffix %q", got, tail)
	}
}

func TestStatusRecorder(t *testing.T) {
	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
		want    string
	}{
		{"nothing written", func(http.ResponseWriter, *http.Request) {}, "200"},
		{"body only", func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("x")) }, "200"},
		{"explicit", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(429) }, "429"},
		{"first wins", func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(503)
			w.WriteHeader(200)
		}, "503"},
		{"flush passes through", func(w http.ResponseWriter, _ *http.Request) {
			w.Write([]byte("x"))
			w.(http.Flusher).Flush()
		}, "200"},
	} {
		inner := httptest.NewRecorder()
		rec := &StatusRecorder{ResponseWriter: inner}
		tc.handler(rec, nil)
		if got := rec.Code(); got != tc.want {
			t.Errorf("%s: Code() = %q, want %q", tc.name, got, tc.want)
		}
		if tc.name == "flush passes through" && !inner.Flushed {
			t.Errorf("%s: inner writer not flushed", tc.name)
		}
	}
}
