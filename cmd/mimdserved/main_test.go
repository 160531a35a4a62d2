package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/serve"
)

// boot runs the daemon on a free loopback port over dir and returns its
// base URL, read off the "listening on" line, and a stop function that
// drains it and waits for run to return.
func boot(t *testing.T, dir string) (url string, stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	exited := make(chan error, 1)
	go func() {
		exited <- run(ctx, []string{"-addr", "127.0.0.1:0", "-cache-dir", dir}, pw)
		pw.Close()
	}()
	stderr := bufio.NewReader(pr)
	line, err := stderr.ReadString('\n')
	if err != nil {
		t.Fatalf("no listening line (run: %v)", <-exited)
	}
	_, rest, ok := strings.Cut(line, "listening on ")
	if !ok {
		t.Fatalf("first stderr line %q", line)
	}
	url, _, _ = strings.Cut(rest, " ")
	drained := make(chan struct{})
	go func() {
		io.Copy(io.Discard, stderr)
		close(drained)
	}()
	return url, func() {
		cancel()
		if err := <-exited; err != nil {
			t.Errorf("run: %v", err)
		}
		<-drained
	}
}

func postRun(t *testing.T, url, spec string) serve.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out serve.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/run: status %d, decode %v, %+v", resp.StatusCode, err, out)
	}
	return out
}

// TestStoredAnswerSurvivesRestart: what one process computed, the next
// one on the same -cache-dir answers from the store without running an
// engine.
func TestStoredAnswerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	const spec = `{"kind":"experiment","experiment":"fig5-1","seeds":[1,2]}`

	url, stop := boot(t, dir)
	cold := postRun(t, url, spec)
	stop()
	if cold.Cache != "miss" || cold.Executed != cold.Jobs {
		t.Fatalf("first process: %+v", cold)
	}

	url, stop = boot(t, dir)
	defer stop()
	warm := postRun(t, url, spec)
	if warm.Cache != "hit" || warm.ID != cold.ID || strings.Join(warm.Tables, "") != strings.Join(cold.Tables, "") {
		t.Fatalf("second process: %+v, first: %+v", warm, cold)
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mimdserved_engine_runs_total 0\n", "mimdserved_store_served_total 1\n"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics lacks %q:\n%s", want, metrics)
		}
	}
}
