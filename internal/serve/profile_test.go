package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

// registerProfileTrace installs a tiny trace experiment once per test
// binary: small enough that an 8-protocol replay matrix is test-speed,
// real enough that its machines flow through Params.Machine and produce
// curves.
var registerProfileTrace = sync.OnceValue(func() string {
	raw := []byte("0 read 1 local\n0 read 2 local\n0 read 1 local\n" +
		"1 read 9 shared\n1 write 9 5 shared\n0 halt\n1 halt\n")
	if err := experiments.RegisterTrace("profile-probe", raw); err != nil {
		panic(err)
	}
	return "trace-profile-probe"
})

func getBody(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.StatusCode
}

// TestProfileEndToEnd drives the tentpole's serving surface: a profiled
// run memoizes a curve doc; GET /v1/profile/{id} serves it from the
// store; ?lines=N answers what-if queries; and a repeat submission is a
// pure store hit — zero engine runs, byte-identical doc.
func TestProfileEndToEnd(t *testing.T) {
	exp := registerProfileTrace()
	store, err := sweep.OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Store: store})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := fmt.Sprintf(`{"kind":"experiment","experiment":"%s","profile":true}`, exp)
	cold, code := post(ts.URL, "/v1/run", spec)
	if code != http.StatusOK {
		t.Fatalf("cold run status %d: %+v", code, cold)
	}
	if cold.Profile != "/v1/profile/"+cold.ID {
		t.Fatalf("Profile URL = %q", cold.Profile)
	}
	if s.Metrics().ProfilesBuilt() != 1 {
		t.Fatalf("ProfilesBuilt = %d, want 1", s.Metrics().ProfilesBuilt())
	}

	// The doc: curves for every protocol shape, machine + per-PE scopes.
	raw, code := getBody(t, ts.URL+cold.Profile)
	if code != http.StatusOK {
		t.Fatalf("GET profile status %d: %s", code, raw)
	}
	var doc ProfileDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != profileSchema || doc.ID != cold.ID {
		t.Fatalf("doc header %+v", doc)
	}
	if len(doc.Entries) == 0 {
		t.Fatal("doc has no entries")
	}
	for _, e := range doc.Entries {
		if e.Experiment != exp || e.Shape == "" {
			t.Fatalf("bad entry %+v", e)
		}
		if len(e.Curves) != 3 { // machine + 2 PEs
			t.Fatalf("entry %s has %d curves, want 3", e.Shape, len(e.Curves))
		}
		if e.Curves[0].Scope != "machine" {
			t.Fatalf("first curve scope = %q", e.Curves[0].Scope)
		}
	}

	// What-if: lines=1 is on the grid (exact); lines=3 is bracketed.
	for _, q := range []struct {
		lines int
		exact bool
	}{{1, true}, {3, false}} {
		body, code := getBody(t, fmt.Sprintf("%s%s?lines=%d", ts.URL, cold.Profile, q.lines))
		if code != http.StatusOK {
			t.Fatalf("what-if status %d: %s", code, body)
		}
		var wi WhatIfDoc
		if err := json.Unmarshal(body, &wi); err != nil {
			t.Fatal(err)
		}
		if len(wi.Answers) != 3*len(doc.Entries) {
			t.Fatalf("lines=%d: %d answers, want %d", q.lines, len(wi.Answers), 3*len(doc.Entries))
		}
		for _, a := range wi.Answers {
			if a.Exact != q.exact || a.Lower == nil || a.Upper == nil {
				t.Fatalf("lines=%d: answer %+v", q.lines, a)
			}
			if a.Lower.MissRatio < a.Upper.MissRatio {
				t.Fatalf("curve not monotone: %+v", a)
			}
		}
	}

	// Repeat submission: full store fast path, no engine, no rebuild.
	engineRuns := s.Metrics().EngineRuns()
	warm, code := post(ts.URL, "/v1/run", spec)
	if code != http.StatusOK || warm.Cache != "hit" {
		t.Fatalf("warm run status %d: %+v", code, warm)
	}
	if warm.Profile != cold.Profile {
		t.Fatalf("warm Profile URL %q != %q", warm.Profile, cold.Profile)
	}
	if got := s.Metrics().EngineRuns(); got != engineRuns {
		t.Fatalf("warm profiled run consumed an engine slot (%d -> %d)", engineRuns, got)
	}
	if s.Metrics().ProfilesBuilt() != 1 {
		t.Fatalf("warm run rebuilt the doc (built = %d)", s.Metrics().ProfilesBuilt())
	}
	raw2, _ := getBody(t, ts.URL+warm.Profile)
	if string(raw2) != string(raw) {
		t.Fatal("stored doc changed between identical submissions")
	}

	// Same spec without profile: different id (the flag shapes the hash).
	plain, code := post(ts.URL, "/v1/run",
		fmt.Sprintf(`{"kind":"experiment","experiment":"%s"}`, exp))
	if code != http.StatusOK {
		t.Fatalf("plain run status %d", code)
	}
	if plain.ID == cold.ID {
		t.Fatal("profile flag does not reach the request id")
	}
	if plain.Profile != "" {
		t.Fatalf("unprofiled response advertises %q", plain.Profile)
	}
	if plain.Tables[0] != cold.Tables[0] {
		t.Fatal("profiling changed the result table")
	}

	// Unknown id: 404 with a hint, no panic.
	if _, code := getBody(t, ts.URL+"/v1/profile/req-doesnotexist"); code != http.StatusNotFound {
		t.Fatalf("missing doc status %d, want 404", code)
	}
	// Bad lines parameter: a 400, not an answer served.
	served := s.Metrics().ProfilesServed()
	if _, code := getBody(t, ts.URL+cold.Profile+"?lines=-3"); code != http.StatusBadRequest {
		t.Fatalf("bad lines status %d, want 400", code)
	}
	if got := s.Metrics().ProfilesServed(); got != served {
		t.Fatalf("a 400 counted as a profile served (%d -> %d)", served, got)
	}
}

// TestProfileRejectedForFaultCampaigns pins the validation rule.
func TestProfileRejectedForFaultCampaigns(t *testing.T) {
	_, ts := newTestServer(t, &testRunner{}, Options{})
	_, code := post(ts.URL, "/v1/run",
		`{"kind":"fault","profile":true,"fault":{"protocols":["rb"],"trials":1,"refs":50}}`)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
}
