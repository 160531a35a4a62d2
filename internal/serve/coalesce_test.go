package serve

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/sweep"
)

// TestConcurrentIdenticalPostsCoalesce is satellite 3's core claim:
// N concurrent identical submissions run the engine exactly once.
func TestConcurrentIdenticalPostsCoalesce(t *testing.T) {
	const waiters = 16
	tr := &testRunner{gate: make(chan struct{})}
	s, ts := newTestServer(t, tr, Options{})

	spec := `{"kind":"experiment","experiment":"fig7-1","seeds":[1,2,3]}`
	var wg sync.WaitGroup
	codes := make([]int, waiters)
	resps := make([]Response, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], codes[i] = post(ts.URL, "/v1/run", spec)
		}(i)
	}

	// Wait until every late submission has attached to the in-flight
	// run, then let the gated runner finish.
	waitFor(t, func() bool { return s.metrics.coalesced.Value() == waiters-1 })
	tr.release()
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("waiter %d: status %d (%+v)", i, code, resps[i])
		}
	}
	// The engine ran once, executing each of the 3 jobs exactly once.
	if got := s.metrics.EngineRuns(); got != 1 {
		t.Fatalf("%d engine runs for %d identical requests, want 1", got, waiters)
	}
	if got := tr.calls.Load(); got != 3 {
		t.Fatalf("runner invoked %d times, want 3 (one per job)", got)
	}
	// Exactly one waiter started the flight; the rest coalesced onto it,
	// and every waiter read the same result document.
	coalesced := 0
	for i, r := range resps {
		if r.Coalesced {
			coalesced++
		}
		if r.ID != resps[0].ID || r.Cache != "miss" || r.Jobs != 3 {
			t.Fatalf("waiter %d diverged: %+v", i, r)
		}
	}
	if coalesced != waiters-1 {
		t.Fatalf("%d waiters marked coalesced, want %d", coalesced, waiters-1)
	}
}

// TestRepeatServedFromStore: once a request has completed, an identical
// resubmission answers from the DirStore without consuming an execution
// slot or invoking the engine's runner.
func TestRepeatServedFromStore(t *testing.T) {
	tr := &testRunner{}
	store, err := sweep.OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, tr, Options{Store: store})

	spec := `{"kind":"experiment","experiment":"fig7-1","seeds":[4,5]}`
	if _, code := post(ts.URL, "/v1/run", spec); code != http.StatusOK {
		t.Fatalf("cold run status %d", code)
	}
	calls := tr.calls.Load()

	warm, code := post(ts.URL, "/v1/run", spec)
	if code != http.StatusOK || warm.Cache != "hit" {
		t.Fatalf("warm run: status %d %+v", code, warm)
	}
	if tr.calls.Load() != calls {
		t.Fatal("warm run invoked the runner")
	}
	// The fast path answered: one engine run total, one store-served
	// request.
	if got := s.metrics.EngineRuns(); got != 1 {
		t.Fatalf("engine runs = %d, want 1", got)
	}
	if served := s.metrics.storeServed.Value(); served != 1 {
		t.Fatalf("store-served = %d, want 1", served)
	}
}

// TestCorruptedStoreEntryReruns: a corrupted store object is
// quarantined on probe and the request transparently re-runs the
// damaged jobs.
func TestCorruptedStoreEntryReruns(t *testing.T) {
	tr := &testRunner{}
	dir := t.TempDir()
	store, err := sweep.OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, tr, Options{Store: store})

	spec := `{"kind":"experiment","experiment":"fig7-1","seeds":[1,2]}`
	cold, code := post(ts.URL, "/v1/run", spec)
	if code != http.StatusOK {
		t.Fatalf("cold run status %d", code)
	}
	calls := tr.calls.Load()

	// Flip bytes in one stored object on disk.
	objects, err := filepath.Glob(filepath.Join(dir, "objects", "*.json"))
	if err != nil || len(objects) == 0 {
		t.Fatalf("no store objects found: %v", err)
	}
	if err := os.WriteFile(objects[0], []byte(`{"corrupt":`), 0o644); err != nil {
		t.Fatal(err)
	}

	warm, code := post(ts.URL, "/v1/run", spec)
	if code != http.StatusOK {
		t.Fatalf("post-corruption run status %d: %+v", code, warm)
	}
	// The intact job still serves from the store; the damaged one
	// re-executed.
	if warm.Executed != 1 || warm.CacheHits != 1 || warm.Cache != "partial" {
		t.Fatalf("post-corruption run = %+v, want 1 executed + 1 hit", warm)
	}
	if got := tr.calls.Load(); got != calls+1 {
		t.Fatalf("runner calls went %d -> %d, want exactly one re-run", calls, got)
	}
	if q := store.Quarantined(); q != 1 {
		t.Fatalf("quarantined = %d, want 1", q)
	}
	if warm.Tables[0] != cold.Tables[0] {
		t.Fatal("re-run produced a different table")
	}

	// A third submission is whole again: pure store hit.
	again, code := post(ts.URL, "/v1/run", spec)
	if code != http.StatusOK || again.Cache != "hit" {
		t.Fatalf("third run: status %d %+v", code, again)
	}
}

// TestCoalescedWaiterSurvivesSubmitterDisconnect: the flight runs under
// the server's context, so the first submitter hanging up never cancels
// a coalesced waiter's work.
func TestCoalescedWaiterSurvivesSubmitterDisconnect(t *testing.T) {
	tr := &testRunner{gate: make(chan struct{})}
	s, ts := newTestServer(t, tr, Options{})

	spec := `{"kind":"experiment","experiment":"fig7-1","seeds":[1]}`
	// First submitter arms the flight, then disconnects mid-wait.
	req, err := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	ctx, cancel := context.WithCancel(context.Background())
	go http.DefaultClient.Do(req.WithContext(ctx))
	waitFor(t, func() bool { return tr.calls.Load() > 0 })

	// Second submitter coalesces onto the running flight.
	second := make(chan Response, 1)
	go func() {
		resp, _ := post(ts.URL, "/v1/run", spec)
		second <- resp
	}()
	waitFor(t, func() bool { return s.metrics.coalesced.Value() == 1 })

	cancel() // first client gone
	tr.release()
	resp := <-second
	if resp.Cache != "miss" || !resp.Coalesced {
		t.Fatalf("surviving waiter got %+v", resp)
	}
}
