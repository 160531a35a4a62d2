package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestUsageGolden: testdata/usage.golden is the parent's stderr and exit
// code for -h, two flag errors and three unusable fleets, recorded before
// this command had a test. None of them reaches the network.
func TestUsageGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/usage.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, args := range []string{"-h", "-nosuchflag", "-spawn x", "-spawn 1 -workers w1=http://127.0.0.1:1", "", "-workers w1"} {
		fmt.Fprintf(&got, "$ %s\n", strings.TrimSpace("mimdrouter "+args))
		code := run(context.Background(), strings.Fields(args), &got)
		fmt.Fprintf(&got, "exit %d\n", code)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("usage output differs from the golden:\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}

// boot runs the router with args on a free loopback port and returns its
// base URL, read off the "listening on" line, and a stop function that
// cancels it, waits for run to return and hands back its exit code and
// everything it wrote to stderr.
func boot(t *testing.T, args ...string) (url string, stop func() (int, string)) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	exited := make(chan int, 1)
	go func() {
		exited <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), pw)
		pw.Close()
	}()
	stderr := bufio.NewReader(pr)
	var log strings.Builder
	for {
		line, err := stderr.ReadString('\n')
		log.WriteString(line)
		if err != nil {
			cancel()
			t.Fatalf("no listening line (exit %d):\n%s", <-exited, log.String())
		}
		if _, rest, ok := strings.Cut(line, "listening on "); ok {
			url, _, _ = strings.Cut(rest, " ")
			break
		}
	}
	drained := make(chan struct{})
	go func() {
		io.Copy(&log, stderr)
		close(drained)
	}()
	return url, func() (int, string) {
		cancel()
		code := <-exited
		<-drained
		return code, log.String()
	}
}

// TestSpawnServeAndDrain boots a self-contained router over one
// in-process worker, answers a run through it twice (computed, then from
// the worker's store), and drains to exit 0 when its context ends.
func TestSpawnServeAndDrain(t *testing.T) {
	url, stop := boot(t, "-spawn", "1")
	const spec = `{"kind":"experiment","experiment":"fig5-1","seeds":[1]}`
	var answers []serve.Response
	for i := 0; i < 2; i++ {
		resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		var out serve.Response
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/run: status %d, decode %v, %+v", resp.StatusCode, err, out)
		}
		answers = append(answers, out)
	}
	cold, warm := answers[0], answers[1]
	if cold.Cache != "miss" || warm.Cache != "hit" || warm.ID != cold.ID ||
		strings.Join(warm.Tables, "") != strings.Join(cold.Tables, "") {
		t.Errorf("cold %+v, warm %+v", cold, warm)
	}

	code, log := stop()
	if code != 0 {
		t.Errorf("exit %d", code)
	}
	for _, want := range []string{"spawned worker w1 at", "(1 workers,", "mimdrouter: draining\n", "mimdrouter: stopping\n"} {
		if !strings.Contains(log, want) {
			t.Errorf("stderr lacks %q:\n%s", want, log)
		}
	}
}
