package cluster

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// contentID is the RequestID stub used by router tests: a pure content
// hash of the body, like the real serve.ComputeRequestID but without
// spec validation.
func contentID(body []byte) (string, error) {
	sum := sha256.Sum256(body)
	return "req-" + hex.EncodeToString(sum[:12]), nil
}

func newTestRouter(t *testing.T, opts Options) *Router {
	t.Helper()
	if opts.RequestID == nil {
		opts.RequestID = contentID
	}
	r, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSubmitAllWorkersDown: with the whole fleet unreachable, a
// submission is shed with 503 + Retry-After instead of hanging or
// erroring opaquely.
func TestSubmitAllWorkersDown(t *testing.T) {
	r := newTestRouter(t, Options{
		Workers: []Worker{{ID: "w1", URL: "http://127.0.0.1:1"}}, // reserved port: connection refused
	})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(`{"kind":"experiment"}`))
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}
	if r.members.Alive("w1") {
		t.Fatal("unreachable worker not passively marked down")
	}
}

// TestSubmitFailsOverToNextCandidate: the shard owner is dead at submit
// time; the router marks it down and the next rendezvous candidate
// serves the request.
func TestSubmitFailsOverToNextCandidate(t *testing.T) {
	var served atomic.Int64
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		served.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"x","cache":"hit"}`)
	}))
	defer live.Close()

	body := `{"kind":"experiment","experiment":"fig7-1"}`
	id, _ := contentID([]byte(body))
	shard := ShardOf(id, DefaultNumShards)
	// Assign URLs so the shard's rendezvous owner is the dead worker.
	rank := Rank([]string{"w1", "w2"}, shard)
	urls := map[string]string{rank[0]: "http://127.0.0.1:1", rank[1]: live.URL}

	r := newTestRouter(t, Options{Workers: []Worker{
		{ID: "w1", URL: urls["w1"]},
		{ID: "w2", URL: urls["w2"]},
	}})
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 via failover; body %s", rec.Code, rec.Body)
	}
	if served.Load() != 1 {
		t.Fatalf("live worker served %d requests, want 1", served.Load())
	}
	if r.members.Alive(rank[0]) {
		t.Fatal("dead owner not marked down by the failed proxy attempt")
	}
	if r.metrics.Failovers() == 0 {
		t.Fatal("failover not counted")
	}
}

// TestMidStreamDeathEmitsTerminalErrorFrame: a worker that dies in the
// middle of an SSE stream must yield a terminal error frame (distinct
// from the worker's own "end" event), and a resubmission must be served
// by the surviving worker with the same request id.
func TestMidStreamDeathEmitsTerminalErrorFrame(t *testing.T) {
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, "event: job\ndata: {\"index\":0}\n\n")
		w.(http.Flusher).Flush()
		// Kill the connection mid-stream without a terminal frame.
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	defer dying.Close()
	var survivorMu sync.Mutex
	var survivorIDs []string
	survivor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		survivorMu.Lock()
		survivorIDs = append(survivorIDs, req.URL.Path)
		survivorMu.Unlock()
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "event: end\ndata: {}\n\n")
	}))
	defer survivor.Close()

	jobID := "req-0123456789abcdef01234567"
	shard := ShardOf(jobID, DefaultNumShards)
	rank := Rank([]string{"w1", "w2"}, shard)
	urls := map[string]string{rank[0]: dying.URL, rank[1]: survivor.URL}
	r := newTestRouter(t, Options{Workers: []Worker{
		{ID: "w1", URL: urls["w1"]},
		{ID: "w2", URL: urls["w2"]},
	}})

	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + jobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSEEvents(t, resp.Body)
	resp.Body.Close()
	if len(events) == 0 || events[len(events)-1] != "error" {
		t.Fatalf("stream events = %v, want terminal \"error\" frame after worker death", events)
	}

	// The owner is now known-bad only after a connect error; kill it for
	// real so the resubmission fails over.
	dying.Close()
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + jobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events2 := readSSEEvents(t, resp2.Body)
	resp2.Body.Close()
	if len(events2) == 0 || events2[len(events2)-1] != "end" {
		t.Fatalf("resubmitted stream events = %v, want clean \"end\" from the survivor", events2)
	}
	survivorMu.Lock()
	defer survivorMu.Unlock()
	if len(survivorIDs) != 1 || !strings.Contains(survivorIDs[0], jobID) {
		t.Fatalf("survivor saw paths %v, want the original id %s — the id must survive failover", survivorIDs, jobID)
	}
}

// readSSEEvents collects the "event:" names from an SSE body until EOF.
func readSSEEvents(t *testing.T, body io.Reader) []string {
	t.Helper()
	var events []string
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			events = append(events, name)
		}
	}
	return events
}

// TestMembershipChangeKeepsIDsStable: the same body must map to the
// same request id and shard before and after a membership change — the
// table re-routes, it never re-identifies.
func TestMembershipChangeKeepsIDsStable(t *testing.T) {
	var mu sync.Mutex
	seen := map[string][]string{} // worker id -> body hashes served
	mkWorker := func(id string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			b, _ := io.ReadAll(req.Body)
			h, _ := contentID(b)
			mu.Lock()
			seen[id] = append(seen[id], h)
			mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"ok":true}`)
		}))
	}
	w1, w2 := mkWorker("w1"), mkWorker("w2")
	defer w1.Close()
	defer w2.Close()

	r := newTestRouter(t, Options{Workers: []Worker{
		{ID: "w1", URL: w1.URL},
		{ID: "w2", URL: w2.URL},
	}})
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	body := `{"kind":"experiment","experiment":"fig6-1","seeds":[1]}`
	wantID, _ := contentID([]byte(body))
	shard := ShardOf(wantID, DefaultNumShards)
	owner := Owner([]string{"w1", "w2"}, shard)

	post := func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	post()
	v0 := r.members.Version()
	r.members.MarkDown(owner) // membership change mid-flight
	post()
	if r.members.Version() == v0 {
		t.Fatal("membership version did not bump")
	}

	mu.Lock()
	defer mu.Unlock()
	var all []string
	for _, ids := range seen {
		all = append(all, ids...)
	}
	if len(all) != 2 {
		t.Fatalf("workers served %d submissions, want 2", len(all))
	}
	for _, id := range all {
		if id != wantID {
			t.Fatalf("request id changed across membership change: %s vs %s", id, wantID)
		}
	}
	// And the survivor took over exactly the dead owner's traffic.
	other := "w1"
	if owner == "w1" {
		other = "w2"
	}
	if len(seen[other]) != 1 {
		t.Fatalf("survivor %s served %d, want 1 (post-change submission)", other, len(seen[other]))
	}
}

// TestProbeRecoversWorker: failure detection needs FailThreshold
// consecutive failed rounds, and a recovered worker is marked back up
// with a version bump.
func TestProbeRecoversWorker(t *testing.T) {
	healthy := atomic.Bool{}
	healthy.Store(true)
	ws := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ws.Close()

	r := newTestRouter(t, Options{
		Workers:      []Worker{{ID: "w1", URL: ws.URL}},
		ProbeRetries: 1,
		ProbeBackoff: 1, // nanosecond backoff keeps the test fast
	})
	ctx := context.Background()

	r.ProbeOnce(ctx)
	if !r.members.Alive("w1") {
		t.Fatal("healthy worker marked down")
	}

	healthy.Store(false)
	r.ProbeOnce(ctx)
	if !r.members.Alive("w1") {
		t.Fatal("one failed round already marked the worker down (FailThreshold=2)")
	}
	r.ProbeOnce(ctx)
	if r.members.Alive("w1") {
		t.Fatal("two failed rounds did not mark the worker down")
	}

	healthy.Store(true)
	r.ProbeOnce(ctx)
	if !r.members.Alive("w1") {
		t.Fatal("recovered worker not marked back up")
	}
}

// TestWriteErrorBodyIsJSON: error text comes from proxy and dial errors
// and may hold anything; the body must stay parseable JSON (Go's %q
// escapes \x01, \a and invalid UTF-8 in ways JSON forbids).
func TestWriteErrorBodyIsJSON(t *testing.T) {
	r := newTestRouter(t, Options{
		Workers:    []Worker{{ID: "w1", URL: "http://127.0.0.1:1"}},
		RetryAfter: 1500 * time.Millisecond,
	})
	msg := "dial tcp: \x01 bell \a bad utf-8 \xff \"quoted\""
	rec := httptest.NewRecorder()
	r.writeError(rec, http.StatusServiceUnavailable, msg)
	var doc map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("error body is not JSON: %v\n%s", err, rec.Body)
	}
	if want := strings.ToValidUTF8(msg, "\ufffd"); doc["error"] != want {
		t.Fatalf("error = %q, want %q", doc["error"], want)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want 2 (1.5s rounded up)", got)
	}
}
