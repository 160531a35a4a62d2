package cluster

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update re-blesses the /metrics golden:
//
//	go test ./internal/cluster -run TestMetricsGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// TestMetricsGolden pins the router's /metrics bytes — series names,
// HELP text, order, label and number formatting — after one proxied
// request and one failover. Everything in the script
// is a pure function of worker ids and request bodies, and requests go
// through Handler() synchronously, so the counts are exact.
func TestMetricsGolden(t *testing.T) {
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"x","cache":"hit"}`)
	}))
	defer live.Close()
	ids := []string{"w1", "w2", "w3"}
	const dead = "w3"
	r := newTestRouter(t, Options{Workers: []Worker{
		{ID: "w1", URL: live.URL},
		{ID: "w2", URL: live.URL},
		{ID: dead, URL: "http://127.0.0.1:1"}, // reserved port: connection refused
	}})
	h := r.Handler()
	do := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	// bodyOwnedBy finds a submission whose shard's rendezvous owner is
	// (or is not) the dead worker.
	bodyOwnedBy := func(deadOwner bool) string {
		for i := 0; ; i++ {
			body := fmt.Sprintf(`{"kind":"experiment","n":%d}`, i)
			id, _ := contentID([]byte(body))
			if (Rank(ids, ShardOf(id, DefaultNumShards))[0] == dead) == deadOwner {
				return body
			}
		}
	}
	submit := func(step, body string) {
		t.Helper()
		if rec := do(http.MethodPost, "/v1/run", body); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", step, rec.Code, rec.Body)
		}
	}

	submit("proxied request", bodyOwnedBy(false))
	submit("failover", bodyOwnedBy(true))

	got := do(http.MethodGet, "/metrics", "").Body.String()
	path := filepath.Join("testdata", "metrics.golden")
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
