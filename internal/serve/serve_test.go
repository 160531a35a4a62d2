package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/report"
	"repro/internal/sweep"
)

// testRunner is a fast deterministic runner with an execution counter
// and an optional gate the test can hold closed to keep jobs in flight.
type testRunner struct {
	calls atomic.Int64
	gate  chan struct{} // when non-nil, every call blocks until release
	once  sync.Once
}

// release opens the gate; later calls do nothing.
func (tr *testRunner) release() {
	tr.once.Do(func() {
		if tr.gate != nil {
			close(tr.gate)
		}
	})
}

func (tr *testRunner) run(spec sweep.JobSpec) (*report.Table, error) {
	tr.calls.Add(1)
	if tr.gate != nil {
		<-tr.gate
	}
	t := &report.Table{ID: spec.Experiment, Title: "test " + spec.Experiment, Columns: []string{"label", "metric"}}
	t.AddRowf(spec.Experiment, float64(spec.Seed*10+uint64(spec.Scale)))
	return t, nil
}

// newTestServer builds a server around tr with an httptest front end.
func newTestServer(t *testing.T, tr *testRunner, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	opts.Runner = tr.run
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	// Cleanups run last-registered first: a test that fails while jobs
	// are parked on the gate releases them before Close waits for their
	// handlers, so it fails instead of hanging.
	t.Cleanup(tr.release)
	return s, ts
}

// post sends a spec and decodes the Response. Safe from any goroutine:
// failures are reported via the returned status (-1 on transport or
// decode errors), never t.Fatal.
func post(url, path, spec string) (Response, int) {
	resp, err := http.Post(url+path, "application/json", strings.NewReader(spec))
	if err != nil {
		return Response{}, -1
	}
	defer resp.Body.Close()
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return Response{}, -1
	}
	return out, resp.StatusCode
}

func TestRunExperimentColdThenWarm(t *testing.T) {
	tr := &testRunner{}
	store, err := sweep.OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, tr, Options{Store: store})

	spec := `{"kind":"experiment","experiment":"fig7-1","seeds":[1,2]}`
	cold, code := post(ts.URL, "/v1/run", spec)
	if code != http.StatusOK {
		t.Fatalf("cold run status %d: %+v", code, cold)
	}
	if cold.Cache != "miss" || cold.Executed == 0 || cold.CacheHits != 0 {
		t.Fatalf("cold run not a miss: %+v", cold)
	}
	if len(cold.Tables) != 1 || cold.Tables[0] == "" {
		t.Fatalf("cold run returned no table: %+v", cold)
	}
	calls := tr.calls.Load()
	if calls == 0 {
		t.Fatal("runner never executed")
	}

	warm, code := post(ts.URL, "/v1/run", spec)
	if code != http.StatusOK {
		t.Fatalf("warm run status %d", code)
	}
	if warm.Cache != "hit" || warm.Executed != 0 {
		t.Fatalf("warm run not a cache hit: %+v", warm)
	}
	if warm.ID != cold.ID {
		t.Fatalf("same spec produced different ids: %s vs %s", cold.ID, warm.ID)
	}
	if got := tr.calls.Load(); got != calls {
		t.Fatalf("warm run invoked the runner (%d -> %d calls)", calls, got)
	}
	if warm.Tables[0] != cold.Tables[0] {
		t.Fatal("warm table differs from cold table")
	}
}

func TestValidationRejects(t *testing.T) {
	tr := &testRunner{}
	_, ts := newTestServer(t, tr, Options{})
	for _, bad := range []string{
		`{"kind":"experiment","experiment":"no-such-artifact"}`,
		`{"kind":"teapot"}`,
		`{"kind":"experiment"}`,
		`{"kind":"sweep"}`,
		`{"kind":"experiment","experiment":"fig7-1","format":"xml"}`,
		`{"kind":"fault"}`,
		`{"kind":"fault","fault":{"classes":["no-such-class"]}}`,
		`{"kind":"experiment","experiment":"fig7-1","unknown_field":1}`,
		`not json`,
	} {
		_, code := post(ts.URL, "/v1/run", bad)
		if code != http.StatusBadRequest {
			t.Errorf("spec %s: status %d, want 400", bad, code)
		}
	}
	if tr.calls.Load() != 0 {
		t.Fatal("an invalid spec reached the runner")
	}
}

func TestOverloadSheds429WithRetryAfter(t *testing.T) {
	tr := &testRunner{gate: make(chan struct{})}
	_, ts := newTestServer(t, tr, Options{MaxInFlight: 1, QueueDepth: -1})

	// Occupy the only execution slot.
	first := make(chan int, 1)
	go func() {
		_, code := post(ts.URL, "/v1/run", `{"kind":"experiment","experiment":"fig7-1","seeds":[1]}`)
		first <- code
	}()
	waitFor(t, func() bool { return tr.calls.Load() > 0 })

	// A different spec cannot queue: it must shed with 429 + Retry-After.
	resp, err := http.Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"kind":"experiment","experiment":"fig7-1","seeds":[2]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}

	tr.release()
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first request finished with %d", code)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	tr := &testRunner{}
	_, ts := newTestServer(t, tr, Options{})
	// One cold run, one identical repeat: one engine run, one request
	// served straight from the store.
	for i := 0; i < 2; i++ {
		if _, code := post(ts.URL, "/v1/run", `{"kind":"experiment","experiment":"fig7-1","seeds":[1]}`); code != 200 {
			t.Fatalf("run %d status %d", i, code)
		}
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	body := buf.String()
	for _, want := range []string{
		"mimdserved_requests_total",
		"mimdserved_engine_runs_total 1",
		"mimdserved_store_served_total 1",
		"mimdserved_cache_hit_ratio",
		"mimdserved_job_latency_ms_bucket",
		"mimdserved_queue_depth 0",
		"mimdserved_silent_failures_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestExperimentsListing(t *testing.T) {
	tr := &testRunner{}
	_, ts := newTestServer(t, tr, Options{})
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []ExperimentInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) == 0 {
		t.Fatal("empty experiment listing")
	}
	seen := false
	for _, e := range list {
		if e.ID == "fig7-1" {
			seen = true
		}
	}
	if !seen {
		t.Fatal("fig7-1 missing from listing")
	}
}

func TestAsyncJobAndEventStream(t *testing.T) {
	tr := &testRunner{gate: make(chan struct{})}
	_, ts := newTestServer(t, tr, Options{})

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"experiment","experiment":"fig7-1","seeds":[1,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	var status JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || status.Status != "running" {
		t.Fatalf("submit: status %d %+v", resp.StatusCode, status)
	}

	// Stream JSONL events while the job runs, releasing the gate once
	// the stream is attached.
	eresp, err := http.Get(ts.URL + status.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if ct := eresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}
	tr.release()
	var events []map[string]any
	sc := bufio.NewScanner(eresp.Body)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) < 3 {
		t.Fatalf("got %d events, want at least start/done/end", len(events))
	}
	last := events[len(events)-1]
	if last["event"] != "end" || last["http_code"] != float64(http.StatusOK) {
		t.Fatalf("terminal frame = %v", last)
	}

	// The job is now queryable as done.
	jresp, err := http.Get(ts.URL + "/v1/jobs/" + status.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var final JobStatus
	if err := json.NewDecoder(jresp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	if final.Status != "done" || final.Result == nil || final.Result.Cache != "miss" {
		t.Fatalf("final status %+v", final)
	}

	// A completed job's event stream replays in full.
	replay, err := http.Get(ts.URL + status.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Body.Close()
	n := 0
	sc = bufio.NewScanner(replay.Body)
	for sc.Scan() {
		n++
	}
	if n != len(events) {
		t.Fatalf("replay returned %d lines, live stream had %d", n, len(events))
	}
}

func TestSSEContentNegotiation(t *testing.T) {
	tr := &testRunner{}
	_, ts := newTestServer(t, tr, Options{})
	run, code := post(ts.URL, "/v1/run", `{"kind":"experiment","experiment":"fig7-1","seeds":[1]}`)
	if code != 200 {
		t.Fatal("run failed")
	}
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+run.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(body, "data: ") || !strings.Contains(body, "event: end") {
		t.Fatalf("not SSE framed:\n%s", body)
	}
}

func TestUnknownJobID(t *testing.T) {
	tr := &testRunner{}
	_, ts := newTestServer(t, tr, Options{})
	resp, err := http.Get(ts.URL + "/v1/jobs/req-doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", resp.StatusCode)
	}
}

func TestFaultCampaignOverHTTP(t *testing.T) {
	store, err := sweep.OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// No runner override: this executes a real (tiny) fault campaign.
	s := New(Options{Store: store})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := `{"kind":"fault","fault":{"protocols":["rb"],"classes":["bus-drop"],"trials":1,"refs":120}}`
	cold, code := post(ts.URL, "/v1/run", spec)
	if code != http.StatusOK {
		t.Fatalf("fault run status %d: %+v", code, cold)
	}
	if cold.Report == "" || !strings.Contains(cold.Report, "bus-drop") {
		t.Fatalf("fault run returned no matrix report: %+v", cold)
	}
	if len(cold.SilentViolations) != 0 {
		t.Fatalf("silent divergences in bus-drop: %v", cold.SilentViolations)
	}
	warm, code := post(ts.URL, "/v1/run", spec)
	if code != http.StatusOK || warm.Cache != "hit" {
		t.Fatalf("warm fault run: status %d %+v", code, warm)
	}
	if warm.Report != cold.Report {
		t.Fatal("warm fault report differs from cold")
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	tr := &testRunner{gate: make(chan struct{})}
	s, ts := newTestServer(t, tr, Options{})
	done := make(chan Response, 1)
	go func() {
		resp, _ := post(ts.URL, "/v1/run", `{"kind":"experiment","experiment":"fig7-1","seeds":[1]}`)
		done <- resp
	}()
	waitFor(t, func() bool { return tr.calls.Load() > 0 })

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- s.Shutdown(ctx)
	}()

	// While draining, new submissions are refused.
	waitFor(t, func() bool {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	_, code := post(ts.URL, "/v1/run", `{"kind":"experiment","experiment":"fig7-1","seeds":[9]}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining server accepted work (status %d)", code)
	}

	// Releasing the running job lets the drain finish cleanly.
	tr.release()
	if resp := <-done; resp.Cache != "miss" {
		t.Fatalf("in-flight request did not complete: %+v", resp)
	}
	if err := <-shut; err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := wallNow().Add(10 * time.Second)
	for !cond() {
		if wallNow().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{{0, "1"}, {time.Millisecond, "1"}, {time.Second, "1"}, {1500 * time.Millisecond, "2"}, {3 * time.Second, "3"}} {
		for _, code := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
			h := http.Header{}
			cluster.SetRetryAfter(h, code, tc.d)
			if got := h.Get("Retry-After"); got != tc.want {
				t.Errorf("SetRetryAfter(%d, %v) = %q, want %q", code, tc.d, got, tc.want)
			}
		}
	}
	h := http.Header{}
	cluster.SetRetryAfter(h, http.StatusInternalServerError, time.Second)
	if got, ok := h["Retry-After"]; ok {
		t.Errorf("a 500 got Retry-After %q; only 429 and 503 promise one", got)
	}
}

func TestRequestIDStability(t *testing.T) {
	opts := Options{Runner: (&testRunner{}).run}
	a, err := normalize(Spec{Kind: "experiment", Experiment: "fig7-1", Seeds: []uint64{1, 2}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := normalize(Spec{Kind: "experiment", Experiment: "fig7-1", Seeds: []uint64{1, 2}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.id != b.id {
		t.Fatalf("identical specs got different ids: %s vs %s", a.id, b.id)
	}
	c, err := normalize(Spec{Kind: "experiment", Experiment: "fig7-1", Seeds: []uint64{1, 3}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if c.id == a.id {
		t.Fatal("different seeds share a request id")
	}
	d, err := normalize(Spec{Kind: "experiment", Experiment: "fig7-1", Seeds: []uint64{1, 2}, Format: "markdown"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d.id == a.id {
		t.Fatal("different formats share a request id")
	}
}
