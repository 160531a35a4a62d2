package chaos

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// seedWhere finds a seed whose plan satisfies pred at request 0, call 0
// — letting a test pin a specific injection on its first round trip
// without hardcoding magic constants that silently rot if the mixing
// changes.
func seedWhere(t *testing.T, class Class, in Intensity, pred func(Decision) bool) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 10_000; seed++ {
		if pred(Plan{Seed: seed, Class: class, Intensity: in}.Decide(0, 0)) {
			return seed
		}
	}
	t.Fatalf("no seed under 10000 yields the wanted %v decision at seq 0", class)
	return 0
}

// TestPlanDeterministic: Decide is a pure function of (seed, class,
// intensity, request, call) — replaying a plan yields identical
// decisions, and changing any key component changes the stream.
func TestPlanDeterministic(t *testing.T) {
	const n = 512
	base := Plan{Seed: 42, Class: ConnRefuse, Intensity: Default}
	for seq := uint64(0); seq < n; seq++ {
		if base.Decide(seq, 1) != base.Decide(seq, 1) || base.Decide(1, seq) != base.Decide(1, seq) {
			t.Fatalf("Decide(%d) not stable across calls", seq)
		}
	}
	variants := []Plan{
		{Seed: 43, Class: ConnRefuse, Intensity: Default},
		{Seed: 42, Class: Truncate, Intensity: Default},
		{Seed: 42, Class: ConnRefuse, Intensity: High},
	}
	for _, v := range variants {
		same := true
		for seq := uint64(0); seq < n; seq++ {
			if base.Decide(seq, 0) != v.Decide(seq, 0) {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("plan %+v decides identically to %+v over %d seqs; key not fully mixed", v, base, n)
		}
	}
}

// TestPlanInjectsAtDefaultIntensity: every transport class draws at
// least one fault within a campaign-sized stream, and fault frequency
// orders Low < High.
func TestPlanInjectsAtDefaultIntensity(t *testing.T) {
	const n = 512
	count := func(p Plan) int {
		c := 0
		for seq := uint64(0); seq < n; seq++ {
			if p.Decide(seq/4, seq%4).Faulty() {
				c++
			}
		}
		return c
	}
	for _, class := range []Class{ConnRefuse, Latency, Truncate, Burst5xx} {
		def := count(Plan{Seed: 7, Class: class, Intensity: Default})
		if def == 0 {
			t.Errorf("%v at default intensity injected nothing in %d requests", class, n)
		}
		low := count(Plan{Seed: 7, Class: class, Intensity: Low})
		high := count(Plan{Seed: 7, Class: class, Intensity: High})
		if !(low < high) {
			t.Errorf("%v fault counts not ordered: low=%d high=%d", class, low, high)
		}
	}
}

// TestProcessClassesSilentAtTransport: pause/crash plans never inject
// at the transport; their faults live in the process schedule.
func TestProcessClassesSilentAtTransport(t *testing.T) {
	for _, class := range []Class{WorkerPause, WorkerCrash} {
		p := Plan{Seed: 9, Class: class, Intensity: High}
		for seq := uint64(0); seq < 256; seq++ {
			if d := p.Decide(seq, seq%3); d.Faulty() {
				t.Fatalf("%v injected %+v at transport seq %d", class, d, seq)
			}
		}
	}
}

// TestBurstCodesAndRuns: Burst5xx only ever injects 502/503, and
// injected codes arrive in granule-aligned runs rather than isolated
// singles.
func TestBurstCodesAndRuns(t *testing.T) {
	p := Plan{Seed: 11, Class: Burst5xx, Intensity: High}
	sawRun := false
	for seq := uint64(0); seq < 1024; seq++ {
		d := p.Decide(7, seq)
		if d.Code != 0 && d.Code != 502 && d.Code != 503 {
			t.Fatalf("Burst5xx injected %d at seq %d; only 502/503 are contract-preservable", d.Code, seq)
		}
		if d.Code != 0 && seq%burstLen == 0 {
			run := true
			for k := uint64(1); k < burstLen; k++ {
				if p.Decide(7, seq+k).Code != d.Code {
					run = false
				}
			}
			if run {
				sawRun = true
			}
		}
	}
	if !sawRun {
		t.Fatal("no full burst granule observed in 1024 requests at high intensity")
	}
}

// TestTransportRefuse: a refusing decision fails the round trip without
// touching the worker.
func TestTransportRefuse(t *testing.T) {
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { hits++ }))
	defer srv.Close()
	seed := seedWhere(t, ConnRefuse, High, func(d Decision) bool { return d.Refuse })
	tr := &Transport{Plan: Plan{Seed: seed, Class: ConnRefuse, Intensity: High}}
	_, err := (&http.Client{Transport: tr}).Get(srv.URL)
	if err == nil || !strings.Contains(err.Error(), "connection refused") {
		t.Fatalf("err = %v, want an injected connection refusal", err)
	}
	if hits != 0 {
		t.Fatalf("worker saw %d requests through a refused dial", hits)
	}
	if s := tr.Stats(); s.Refused != 1 || s.Faults() != 1 {
		t.Fatalf("stats = %+v, want exactly one refusal", s)
	}
}

// TestTransportInjectedCode: a coded decision synthesizes the 5xx
// without reaching the worker, and 503 carries Retry-After.
func TestTransportInjectedCode(t *testing.T) {
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { hits++ }))
	defer srv.Close()
	seed := seedWhere(t, Burst5xx, High, func(d Decision) bool { return d.Code == 503 })
	tr := &Transport{Plan: Plan{Seed: seed, Class: Burst5xx, Intensity: High}}
	resp, err := (&http.Client{Transport: tr}).Get(srv.URL)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("status = %d, want injected 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("injected 503 missing Retry-After; the client contract requires the hint")
	}
	if hits != 0 {
		t.Fatalf("worker saw %d requests through an injected 5xx", hits)
	}
}

// TestTransportTruncatesMidStream: a truncating decision cuts an SSE
// body with a clean EOF before the terminal end frame — the short read
// parses without error, which is exactly why consumers must scan for
// the end frame.
func TestTransportTruncatesMidStream(t *testing.T) {
	frames := strings.Repeat("event: result\ndata: {\"slot\":1}\n\n", 20) +
		"event: end\ndata: {\"http_code\":200}\n\n"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		io.WriteString(w, frames)
	}))
	defer srv.Close()
	seed := seedWhere(t, Truncate, High, func(d Decision) bool { return d.TruncateAfter > 0 })
	plan := Plan{Seed: seed, Class: Truncate, Intensity: High}
	cut := plan.Decide(0, 0).TruncateAfter
	tr := &Transport{Plan: plan}
	resp, err := (&http.Client{Transport: tr}).Get(srv.URL)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("ReadAll = %v; truncation must look like a clean EOF, not a transport error", err)
	}
	if len(body) != cut {
		t.Fatalf("read %d bytes, want the plan's %d-byte cut", len(body), cut)
	}
	if strings.Contains(string(body), "event: end") {
		t.Fatal("cut body still contains the terminal end frame; truncation did not land mid-stream")
	}
}

// TestProcScheduleShape: the pause/crash schedule is deterministic,
// well-formed (At < Until < total, worker in range), and never darkens
// two workers at once.
func TestProcScheduleShape(t *testing.T) {
	p := Plan{Seed: 5, Class: WorkerCrash, Intensity: High}
	const total, workers = 64, 3
	a := p.ProcSchedule(total, workers)
	b := p.ProcSchedule(total, workers)
	if len(a) == 0 {
		t.Fatal("high-intensity crash plan scheduled no events over 64 requests")
	}
	if len(a) != len(b) {
		t.Fatalf("schedule not deterministic: %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across calls: %+v vs %+v", i, a[i], b[i])
		}
	}
	var prevUntil uint64
	for i, ev := range a {
		if ev.At >= ev.Until || ev.Until >= total {
			t.Fatalf("event %d malformed: %+v (total %d)", i, ev, total)
		}
		if ev.Worker < 0 || ev.Worker >= workers {
			t.Fatalf("event %d targets worker %d of %d", i, ev.Worker, workers)
		}
		if ev.Pause {
			t.Fatalf("crash plan produced a pause event: %+v", ev)
		}
		if ev.At < prevUntil {
			t.Fatalf("event %d (%+v) overlaps the previous fault (healed at %d); two workers dark at once", i, ev, prevUntil)
		}
		prevUntil = ev.Until
	}
	if got := (Plan{Seed: 5, Class: Latency, Intensity: High}).ProcSchedule(total, workers); got != nil {
		t.Fatalf("transport-class plan produced a process schedule: %+v", got)
	}
}

// TestParseRoundTrips: every class has its CLI name, String/Parse agree
// for every class and intensity, and unknown names error.
func TestParseRoundTrips(t *testing.T) {
	names := []string{"conn-refuse", "latency", "truncate", "burst-5xx", "worker-pause", "worker-crash"}
	if len(Classes()) != len(names) {
		t.Fatalf("%d classes, %d names", len(Classes()), len(names))
	}
	for i, c := range Classes() {
		if c.String() != names[i] {
			t.Errorf("class %d is %q, want %q", i, c.String(), names[i])
		}
	}
	for _, c := range Classes() {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Fatalf("ParseClass(%q) = %v, %v", c.String(), got, err)
		}
	}
	for _, in := range Intensities() {
		got, err := ParseIntensity(in.String())
		if err != nil || got != in {
			t.Fatalf("ParseIntensity(%q) = %v, %v", in.String(), got, err)
		}
	}
	if _, err := ParseClass("cosmic-ray"); err == nil {
		t.Fatal("ParseClass accepted an unknown class")
	}
	if _, err := ParseIntensity("extreme"); err == nil {
		t.Fatal("ParseIntensity accepted an unknown intensity")
	}
}
