package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/sweep"
)

// wallMS matches the one host-dependent field of an engine event.
var wallMS = regexp.MustCompile(`"wall_ms":[0-9.e+-]+`)

// TestWarmEventStreamGolden pins the event stream of a flight answered
// from the store: a start and a cached done (with a wall_ms) per job in
// canonical order, the sweep summary, the terminal frame. The golden was
// recorded when a stored answer still ran a one-worker engine; whatever
// serves it now owes its watchers the same frames.
func TestWarmEventStreamGolden(t *testing.T) {
	store, err := sweep.OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, &testRunner{}, Options{Store: store, Workers: 1})

	const spec = `{"kind":"experiment","experiment":"fig7-1","seeds":[1,2]}`
	if cold, code := post(ts.URL, "/v1/run", spec); code != http.StatusOK || cold.Cache != "miss" {
		t.Fatalf("cold run: status %d %+v", code, cold)
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var status JobStatus
	err = json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The stream ends only when the flight has, so it is whole whether
	// the submission was answered 202 or 200.
	events, err := http.Get(ts.URL + status.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := io.ReadAll(events.Body)
	events.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "warm_events.golden", wallMS.ReplaceAllString(string(frames), `"wall_ms":"WALL"`))
}

// countingStore counts the reads (Get and GetRaw) and the writes (Put
// and PutRaw) that reach a sweep.Store.
type countingStore struct {
	sweep.Store
	reads, writes atomic.Int64
}

func (c *countingStore) Get(key string) (*sweep.Result, bool, error) {
	c.reads.Add(1)
	return c.Store.Get(key)
}

func (c *countingStore) GetRaw(key string) ([]byte, bool, error) {
	c.reads.Add(1)
	return c.Store.GetRaw(key)
}

func (c *countingStore) Put(res *sweep.Result) error {
	c.writes.Add(1)
	return c.Store.Put(res)
}

func (c *countingStore) PutRaw(key string, payload []byte) error {
	c.writes.Add(1)
	return c.Store.PutRaw(key, payload)
}

// TestWarmRequestStoreTraffic is the CI guard for what a hit costs: each
// stored job is read exactly once, by Get or GetRaw, and nothing is
// written, whether the hit is the first after the cold run (a flight
// whose Lookup builds the answer) or a repeat of a kept answer.
func TestWarmRequestStoreTraffic(t *testing.T) {
	store := &countingStore{Store: sweep.NewMemStore()}
	s, ts := newTestServer(t, &testRunner{}, Options{Store: store})

	const (
		spec = `{"kind":"experiment","experiment":"fig7-1","seeds":[1,2,3]}`
		jobs = 3
		warm = 5
	)
	if cold, code := post(ts.URL, "/v1/run", spec); code != http.StatusOK || cold.Jobs != jobs {
		t.Fatalf("cold run: status %d %+v", code, cold)
	}
	reads, writes := store.reads.Load(), store.writes.Load()

	for i := 0; i < warm; i++ {
		if r, code := post(ts.URL, "/v1/run", spec); code != http.StatusOK || r.Cache != "hit" || r.CacheHits != jobs {
			t.Fatalf("warm run %d: status %d %+v", i, code, r)
		}
	}
	if got := store.reads.Load() - reads; got != warm*jobs {
		t.Errorf("%d warm requests of %d jobs cost %d reads, want %d", warm, jobs, got, warm*jobs)
	}
	if got := store.writes.Load() - writes; got != 0 {
		t.Errorf("warm requests cost %d writes, want 0", got)
	}
	if got := s.Metrics().storeServed.Value(); got != warm {
		t.Errorf("mimdserved_store_served_total = %d, want %d", got, warm)
	}
	if got := s.Metrics().jobCacheHits.Value(); got != warm*jobs {
		t.Errorf("mimdserved_job_cache_hits_total = %d, want %d", got, warm*jobs)
	}
}
