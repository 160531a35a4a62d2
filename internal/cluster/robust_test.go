package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTerminalScanner: end and error frames terminate, in both stream
// formats, across chunk boundaries, but not when the marker text
// merely appears inside a data payload.
func TestTerminalScanner(t *testing.T) {
	cases := []struct {
		name   string
		ct     string
		chunks []string
		want   bool
	}{
		{"sse end frame", "text/event-stream", []string{"event: result\ndata: {}\n\nevent: end\ndata: {\"http_code\":200}\n\n"}, true},
		{"sse error frame", "text/event-stream", []string{"event: error\ndata: {\"error\":\"x\"}\n\n"}, true},
		{"sse no terminal", "text/event-stream", []string{"event: result\ndata: {}\n\nevent: resu"}, false},
		{"sse split across chunks", "text/event-stream", []string{"event: result\ndata: {}\n\neve", "nt: end\ndata: {}\n\n"}, true},
		{"sse marker quoted in data", "text/event-stream", []string{"event: result\ndata: {\"note\":\"event: end\"}\n\n"}, false},
		{"ndjson end line", "application/x-ndjson", []string{"{\"event\":\"result\"}\n{\"event\":\"end\",\"http_code\":200}\n"}, true},
		{"ndjson truncated", "application/x-ndjson", []string{"{\"event\":\"result\"}\n{\"event\":\"res"}, false},
		{"ndjson end at stream start", "application/x-ndjson", []string{"{\"event\":\"end\",\"http_code\":200}\n"}, true},
	}
	for _, tc := range cases {
		sc := NewTerminalScanner(tc.ct)
		for _, chunk := range tc.chunks {
			sc.Observe([]byte(chunk))
		}
		if sc.Terminated() != tc.want {
			t.Errorf("%s: Terminated() = %v, want %v", tc.name, sc.Terminated(), tc.want)
		}
	}
}

// TestRelayDetectsTruncatedStream: an SSE stream that ends with a clean
// EOF but no terminal frame is a transport failure — the router appends
// an explicit error frame and bumps mimdrouter_truncated_streams.
// Before the scanner existed this exact stream parsed as a
// short-but-clean result.
func TestRelayDetectsTruncatedStream(t *testing.T) {
	truncating := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "event: result\ndata: {\"slot\":0}\n\n")
		// Return without an end frame: the client sees a clean EOF.
	}))
	defer truncating.Close()

	r := newTestRouter(t, Options{Workers: []Worker{{ID: "w1", URL: truncating.URL}}})
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/req-x/events", nil))

	body := rec.Body.String()
	if !strings.Contains(body, "event: error") || !strings.Contains(body, "truncated") {
		t.Fatalf("truncated stream relayed without a terminal error frame:\n%s", body)
	}
	if got := r.Metrics().TruncatedStreams(); got != 1 {
		t.Fatalf("TruncatedStreams = %d, want 1", got)
	}

	// A complete stream must NOT be flagged.
	rec2 := httptest.NewRecorder()
	complete := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "event: result\ndata: {}\n\nevent: end\ndata: {\"http_code\":200}\n\n")
	}))
	defer complete.Close()
	r2 := newTestRouter(t, Options{Workers: []Worker{{ID: "w1", URL: complete.URL}}})
	r2.Handler().ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/v1/jobs/req-x/events", nil))
	if strings.Contains(rec2.Body.String(), "event: error") {
		t.Fatalf("complete stream flagged as truncated:\n%s", rec2.Body.String())
	}
	if got := r2.Metrics().TruncatedStreams(); got != 0 {
		t.Fatalf("complete stream bumped TruncatedStreams to %d", got)
	}
}

// TestGatewayStatusFailsOver: a candidate answering 503 is a failed
// attempt — the next candidate serves the request and the client never
// sees the 5xx. A 500, by contrast, is the engine's own verdict and
// relays untouched.
func TestGatewayStatusFailsOver(t *testing.T) {
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "shed", http.StatusServiceUnavailable)
	}))
	defer shedding.Close()
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"x","cache":"hit"}`)
	}))
	defer healthy.Close()

	body := `{"kind":"experiment","experiment":"fig7-1"}`
	id, _ := contentID([]byte(body))
	shard := ShardOf(id, DefaultNumShards)
	rank := Rank([]string{"w1", "w2"}, shard)
	urls := map[string]string{rank[0]: shedding.URL, rank[1]: healthy.URL}
	r := newTestRouter(t, Options{Workers: []Worker{
		{ID: "w1", URL: urls["w1"]},
		{ID: "w2", URL: urls["w2"]},
	}})

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 via gateway failover; body %s", rec.Code, rec.Body)
	}
	if r.Metrics().Failovers() == 0 {
		t.Fatal("gateway failover not counted")
	}

	// Engine 500s relay untouched: same topology, owner answers 500.
	engineFail := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		http.Error(w, `{"error":"engine exploded"}`, http.StatusInternalServerError)
	}))
	defer engineFail.Close()
	urls2 := map[string]string{rank[0]: engineFail.URL, rank[1]: healthy.URL}
	r2 := newTestRouter(t, Options{Workers: []Worker{
		{ID: "w1", URL: urls2["w1"]},
		{ID: "w2", URL: urls2["w2"]},
	}})
	rec2 := httptest.NewRecorder()
	r2.Handler().ServeHTTP(rec2, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	if rec2.Code != http.StatusInternalServerError {
		t.Fatalf("engine 500 became %d; deterministic failures must not fail over", rec2.Code)
	}
}

// TestAttemptTimeoutFailsOverFromSilentWorker: a worker that accepts
// the connection and then says nothing (the paused-process profile) is
// abandoned after AttemptTimeout and the next candidate answers.
func TestAttemptTimeoutFailsOverFromSilentWorker(t *testing.T) {
	// The silent worker never writes headers. It also selects on a test
	// release channel: with an unread POST body the net/http server
	// cannot detect the router's cancel, so the handler must be let go
	// explicitly before the deferred Close.
	released := make(chan struct{})
	silent := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		select {
		case <-req.Context().Done():
		case <-released:
		}
	}))
	defer silent.Close()
	defer close(released)
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"x"}`)
	}))
	defer healthy.Close()

	body := `{"kind":"experiment","experiment":"fig7-1"}`
	id, _ := contentID([]byte(body))
	shard := ShardOf(id, DefaultNumShards)
	rank := Rank([]string{"w1", "w2"}, shard)
	urls := map[string]string{rank[0]: silent.URL, rank[1]: healthy.URL}
	r := newTestRouter(t, Options{
		Workers: []Worker{
			{ID: "w1", URL: urls["w1"]},
			{ID: "w2", URL: urls["w2"]},
		},
		AttemptTimeout: 150 * time.Millisecond,
	})

	start := time.Now()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 via attempt-timeout failover", rec.Code)
	}
	if wall := time.Since(start); wall > 10*time.Second {
		t.Fatalf("failover took %v; the silent worker was not abandoned", wall)
	}
	if n := r.Metrics().AttemptTimeouts(); n != 1 {
		t.Fatalf("AttemptTimeouts = %d, want 1", n)
	}
}

// TestFailoverRacesMembershipBump: concurrent submissions hammer the
// router while w1 flaps between crashed and live, so the fleet's
// effective membership changes under every walk. The contract under the
// race: every response is 200 or 503-with-Retry-After, never anything
// else, and the run is data-race-free under -race.
func TestFailoverRacesMembershipBump(t *testing.T) {
	live := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"x"}`)
	})
	flapping := &CrashGate{Inner: live}
	w1, w2 := httptest.NewServer(flapping), httptest.NewServer(live)
	defer w1.Close()
	defer w2.Close()

	r := newTestRouter(t, Options{Workers: []Worker{
		{ID: "w1", URL: w1.URL},
		{ID: "w2", URL: w2.URL},
	}})

	stop := make(chan struct{})
	var flips sync.WaitGroup
	flips.Add(1)
	go func() {
		defer flips.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			flapping.Crashed.Store(i%2 == 0)
		}
	}()

	var reqs sync.WaitGroup
	errs := make(chan string, 256)
	for g := 0; g < 4; g++ {
		reqs.Add(1)
		go func(g int) {
			defer reqs.Done()
			for i := 0; i < 50; i++ {
				body := fmt.Sprintf(`{"kind":"experiment","experiment":"fig7-1","g":%d,"i":%d}`, g, i)
				rec := httptest.NewRecorder()
				r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
				switch rec.Code {
				case http.StatusOK:
				case http.StatusServiceUnavailable:
					if rec.Header().Get("Retry-After") == "" {
						errs <- "503 without Retry-After"
					}
				default:
					errs <- fmt.Sprintf("unexpected status %d", rec.Code)
				}
			}
		}(g)
	}
	reqs.Wait()
	close(stop)
	flips.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
