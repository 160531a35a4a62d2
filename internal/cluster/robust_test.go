package cluster

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
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

// TestDrainWaitsForInflightStreams: Drain sheds new submissions with
// 503+Retry-After but holds the door for a live proxied stream until
// its terminal frame is relayed — the mimdrouter SIGINT path.
func TestDrainWaitsForInflightStreams(t *testing.T) {
	release := make(chan struct{})
	streaming := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.HasSuffix(req.URL.Path, "/events") {
			w.Header().Set("Content-Type", "text/event-stream")
			fmt.Fprint(w, "event: result\ndata: {\"slot\":0}\n\n")
			w.(http.Flusher).Flush()
			<-release
			fmt.Fprint(w, "event: end\ndata: {\"http_code\":200}\n\n")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"x"}`)
	}))
	defer streaming.Close()

	r := newTestRouter(t, Options{Workers: []Worker{{ID: "w1", URL: streaming.URL}}})
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/v1/jobs/req-x/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "event: result") {
		t.Fatalf("first stream line = %q, %v", line, err)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- r.Drain(ctx)
	}()

	// Drain must not complete while the stream is open.
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with a live in-flight stream", err)
	case <-time.After(100 * time.Millisecond):
	}

	// New submissions shed during the drain.
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(`{"kind":"experiment","experiment":"fig7-1"}`)))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("submission during drain: status %d, Retry-After %q; want 503 with hint",
			rec.Code, rec.Header().Get("Retry-After"))
	}

	close(release)
	rest := make([]byte, 4096)
	var streamed strings.Builder
	for {
		n, rerr := br.Read(rest[:])
		streamed.Write(rest[:n])
		if rerr != nil {
			break
		}
	}
	if !strings.Contains(streamed.String(), "event: end") {
		t.Fatalf("drained stream missing terminal frame:\n%s", streamed.String())
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain = %v after the stream completed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain never returned after the in-flight stream finished")
	}
}

// TestJournalSubmitAndResume: a journaled submission leaves no pending
// entries after success; a crash-orphaned begin record is re-proxied by
// ResumePending and compacted away.
func TestJournalSubmitAndResume(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		b := make([]byte, 1024)
		n, _ := req.Body.Read(b)
		mu.Lock()
		seen = append(seen, string(b[:n]))
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"x","cache":"miss"}`)
	}))
	defer worker.Close()

	path := filepath.Join(t.TempDir(), "flights.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	r := newTestRouter(t, Options{
		Workers: []Worker{{ID: "w1", URL: worker.URL}},
		Journal: j,
	})

	// A served submission journals begin+done: nothing pending after.
	body := `{"kind":"experiment","experiment":"fig7-1"}`
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("journaled submission status %d", rec.Code)
	}
	pending, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("pending after a completed submission = %+v", pending)
	}

	// Orphan a begin record (the crash) and resume it.
	orphan := `{"kind":"experiment","experiment":"orphaned"}`
	oid, _ := contentID([]byte(orphan))
	if err := j.Begin(oid, ShardOf(oid, DefaultNumShards), []byte(orphan)); err != nil {
		t.Fatal(err)
	}
	resumed, err := r.ResumePending(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("ResumePending resumed %d flights, want 1", resumed)
	}
	mu.Lock()
	replayed := false
	for _, s := range seen {
		if strings.Contains(s, "orphaned") {
			replayed = true
		}
	}
	mu.Unlock()
	if !replayed {
		t.Fatal("orphaned flight never reached the worker")
	}
	pending, err = LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("pending after resume = %+v, want compacted empty", pending)
	}
	if r.Metrics().ResumedFlights() != 1 {
		t.Fatalf("ResumedFlights = %d, want 1", r.Metrics().ResumedFlights())
	}
}

// TestJournalBeginFailureSheds: -journal promises a durable record per
// submission, so a journal that cannot take the begin record sheds the
// submission with 503 + Retry-After and the worker never sees it.
func TestJournalBeginFailureSheds(t *testing.T) {
	hits := 0
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		hits++
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"x"}`)
	}))
	defer worker.Close()
	j, err := OpenJournal(filepath.Join(t.TempDir(), "flights.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	r := newTestRouter(t, Options{Workers: []Worker{{ID: "w1", URL: worker.URL}}, Journal: j})
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(`{"kind":"experiment","experiment":"fig7-1"}`)))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("submission on a closed journal: status %d, Retry-After %q; want 503 with hint",
			rec.Code, rec.Header().Get("Retry-After"))
	}
	if hits != 0 {
		t.Fatalf("worker saw %d unjournaled submission(s)", hits)
	}
}
