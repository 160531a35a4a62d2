package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/sweep"
)

// heldRunner is testRunner's runner behind a gate the test closes after
// its warm-up: while held, every call waits until release.
type heldRunner struct {
	testRunner
	held atomic.Bool
	gate chan struct{}
	once sync.Once
}

func (h *heldRunner) run(spec sweep.JobSpec) (*report.Table, error) {
	if h.held.Load() {
		<-h.gate
	}
	return h.testRunner.run(spec)
}

func (h *heldRunner) release() { h.once.Do(func() { close(h.gate) }) }

// newHeldServer is newTestServer for a heldRunner over a DirStore in dir.
func newHeldServer(t *testing.T, dir string) (*Server, *httptest.Server, *heldRunner, *sweep.DirStore) {
	t.Helper()
	store, err := sweep.OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := &heldRunner{gate: make(chan struct{})}
	s := New(Options{Store: store, Runner: h.run})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(h.release)
	return s, ts, h, store
}

// postRaw sends a spec and returns the answer's bytes.
func postRaw(url, path, spec string) ([]byte, int, error) {
	resp, err := http.Post(url+path, "application/json", strings.NewReader(spec))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// warmUp runs spec cold and then once warm, so that the id's last flight
// answered wholly from the store and the next request is a repeat.
func warmUp(t *testing.T, url, spec string) Response {
	t.Helper()
	if cold, code := post(url, "/v1/run", spec); code != http.StatusOK || cold.Cache != "miss" {
		t.Fatalf("cold run: status %d %+v", code, cold)
	}
	warm, code := post(url, "/v1/run", spec)
	if code != http.StatusOK || warm.Cache != "hit" {
		t.Fatalf("warm run: status %d %+v", code, warm)
	}
	return warm
}

// TestRepeatCatchesCorruption: an object corrupted after a store-served
// answer is caught by the next repeat's re-read, quarantined and re-run,
// and the answer's tables do not change.
func TestRepeatCatchesCorruption(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bit-flipped", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x01
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			_, ts, h, store := newHeldServer(t, dir)
			const spec = `{"kind":"experiment","experiment":"fig7-1","seeds":[1,2]}`
			warm := warmUp(t, ts.URL, spec)
			calls := h.calls.Load()

			objects, err := filepath.Glob(filepath.Join(dir, "objects", "*.json"))
			if err != nil || len(objects) != 2 {
				t.Fatalf("store objects %v, %v; want 2", objects, err)
			}
			data, err := os.ReadFile(objects[1])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(objects[1], tc.mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}

			rerun, code := post(ts.URL, "/v1/run", spec)
			if code != http.StatusOK || rerun.Cache != "partial" || rerun.Executed != 1 || rerun.CacheHits != 1 {
				t.Fatalf("repeat after corruption: status %d %+v, want 1 executed + 1 hit", code, rerun)
			}
			if h.calls.Load() != calls+1 || store.Quarantined() != 1 {
				t.Errorf("runner calls %d -> %d, quarantined %d; want one re-run and one quarantine",
					calls, h.calls.Load(), store.Quarantined())
			}
			for i := 0; i < 2; i++ {
				again, code := post(ts.URL, "/v1/run", spec)
				if code != http.StatusOK || again.Cache != "hit" {
					t.Fatalf("request %d after the re-run: status %d %+v", i, code, again)
				}
				if fmt.Sprint(again.Tables) != fmt.Sprint(warm.Tables) {
					t.Errorf("request %d after the re-run: tables differ", i)
				}
			}
			if fmt.Sprint(rerun.Tables) != fmt.Sprint(warm.Tables) {
				t.Error("the re-run changed the tables")
			}
		})
	}
}

// TestRepeatWhileDrainingIs503: a draining server refuses a repeat as it
// refuses any submission.
func TestRepeatWhileDrainingIs503(t *testing.T) {
	s, ts, h, _ := newHeldServer(t, t.TempDir())
	const spec = `{"kind":"experiment","experiment":"fig7-1","seeds":[1]}`
	warmUp(t, ts.URL, spec)

	// A held flight of another id keeps the drain going.
	h.held.Store(true)
	other := make(chan int, 1)
	go func() {
		_, code := post(ts.URL, "/v1/run", `{"kind":"experiment","experiment":"fig7-1","seeds":[9]}`)
		other <- code
	}()
	waitFor(t, func() bool { n, _ := s.admit.depths(); return n > 0 })
	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- s.Shutdown(ctx)
	}()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.draining
	})

	if body, code, err := postRaw(ts.URL, "/v1/run", spec); err != nil || code != http.StatusServiceUnavailable {
		t.Errorf("repeat while draining: status %d, %v: %s", code, err, body)
	}
	h.release()
	if code := <-other; code != http.StatusOK {
		t.Errorf("held flight: status %d", code)
	}
	if err := <-shut; err != nil {
		t.Errorf("drain: %v", err)
	}
}

// TestRepeatJoinsRunningFlight: while a flight of the id runs, a repeat
// coalesces onto it rather than answering from the kept bytes.
func TestRepeatJoinsRunningFlight(t *testing.T) {
	dir := t.TempDir()
	s, ts, h, _ := newHeldServer(t, dir)
	const spec = `{"kind":"experiment","experiment":"fig7-1","seeds":[1,2]}`
	warmUp(t, ts.URL, spec)

	// Delete one object and start a flight through the async door: it
	// re-runs that job on the held runner.
	objects, err := filepath.Glob(filepath.Join(dir, "objects", "*.json"))
	if err != nil || len(objects) != 2 {
		t.Fatalf("store objects %v, %v; want 2", objects, err)
	}
	if err := os.Remove(objects[0]); err != nil {
		t.Fatal(err)
	}
	h.held.Store(true)
	if _, code := post(ts.URL, "/v1/jobs", spec); code != http.StatusAccepted {
		t.Fatalf("submission: status %d", code)
	}
	waitFor(t, func() bool { n, _ := s.admit.depths(); return n > 0 })

	joined := make(chan Response, 1)
	go func() {
		resp, _ := post(ts.URL, "/v1/run", spec)
		joined <- resp
	}()
	waitFor(t, func() bool { return s.metrics.coalesced.Value() == 1 })
	h.release()
	if resp := <-joined; !resp.Coalesced || resp.Cache != "partial" || resp.Executed != 1 {
		t.Errorf("repeat during a running flight got %+v, want a coalesced partial answer", resp)
	}
}

// TestConcurrentRepeatsIdentical: concurrent repeats of one id (run it
// under -race) get identical bodies, each a whole hit that counts as
// store-served and runs no engine.
func TestConcurrentRepeatsIdentical(t *testing.T) {
	const repeats = 8
	s, ts, h, _ := newHeldServer(t, t.TempDir())
	const spec = `{"kind":"experiment","experiment":"fig7-1","seeds":[1,2,3]}`
	warmUp(t, ts.URL, spec)
	calls, runs, served := h.calls.Load(), s.metrics.EngineRuns(), s.metrics.storeServed.Value()

	var wg sync.WaitGroup
	bodies := make([][]byte, repeats)
	codes := make([]int, repeats)
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i], codes[i], _ = postRaw(ts.URL, "/v1/run", spec)
		}(i)
	}
	wg.Wait()
	for i := range bodies {
		if codes[i] != http.StatusOK || !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("repeat %d: status %d, body\n%s\nwant\n%s", i, codes[i], bodies[i], bodies[0])
		}
	}
	for _, field := range []string{`"cache": "hit"`, `"executed": 0`, `"cache_hits": 3`} {
		if !bytes.Contains(bodies[0], []byte(field)) {
			t.Errorf("repeat lacks %s:\n%s", field, bodies[0])
		}
	}
	if got := s.metrics.storeServed.Value() - served; got != repeats {
		t.Errorf("mimdserved_store_served_total rose by %d, want %d", got, repeats)
	}
	if h.calls.Load() != calls || s.metrics.EngineRuns() != runs {
		t.Errorf("repeats ran the runner %d times and the engine %d times",
			h.calls.Load()-calls, s.metrics.EngineRuns()-runs)
	}
}

// TestRegistryAgesByAnswers: an id stays in the completed-flight
// registry while any of its last doneCap answers does, so an id answered
// again is not dropped when its first answer ages out.
func TestRegistryAgesByAnswers(t *testing.T) {
	_, ts := newTestServer(t, &testRunner{}, Options{})
	spec := func(seed int) string {
		return fmt.Sprintf(`{"kind":"experiment","experiment":"fig7-1","seeds":[%d]}`, seed)
	}
	x, code := post(ts.URL, "/v1/run", spec(1))
	if code != http.StatusOK {
		t.Fatalf("first request: status %d", code)
	}
	for seed := 2; seed <= doneCap; seed++ {
		if _, code := post(ts.URL, "/v1/run", spec(seed)); code != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, code)
		}
	}
	if again, code := post(ts.URL, "/v1/run", spec(1)); code != http.StatusOK || again.Cache != "hit" {
		t.Fatalf("second answer: status %d %+v", code, again)
	}
	if _, code := post(ts.URL, "/v1/run", spec(doneCap+1)); code != http.StatusOK {
		t.Fatalf("last request: status %d", code)
	}
	// The oldest id answered only once has aged out.
	gone, err := ComputeRequestID([]byte(spec(2)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[string]int{x.ID: http.StatusOK, gone: http.StatusNotFound} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET /v1/jobs/%s: status %d, want %d", id, resp.StatusCode, want)
		}
	}
}
