package machine_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/mrc"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/workload"
)

const ledgerGolden = "testdata/ledger.golden"

// TestLedger is the work ledger: what each bench shape costs at seed 1,
// in counts the code keeps or the runtime reports. A "name=v" cell must
// match testdata/ledger.golden exactly; "name<=v" is a ceiling on runtime
// bytes or allocations, which -update writes as the measured value plus
// 20 % rounded down to two significant figures. Core rows count 20 000
// cycles after a 100 000-cycle warm-up (core-saturated's caches are still
// filling before it); build rows build RB PDE PEs, 0 refs being unbounded.
func TestLedger(t *testing.T) {
	if machine.RaceEnabled {
		t.Skip("the race detector allocates and is slow; run without -race")
	}
	var rows []string
	add := func(row, format string, args ...any) {
		rows = append(rows, fmt.Sprintf("%-20s "+format, append([]any{row}, args...)...))
	}

	for _, shape := range []string{"saturated", "private", "sync", "profiled"} {
		add("core-"+shape, "%s", coreRow(t, shape))
	}
	for _, tc := range buildShapes {
		add(fmt.Sprintf("build-%dpe-%drefs", tc[0], tc[1]), "%s", buildRow(tc[0], tc[1]))
	}

	store := &tally{s: sweep.NewMemStore()}
	fig3, err3 := sweep.SpecFor("fig3-1", nil, 1)
	fig5, err5 := sweep.SpecFor("fig5-1", nil, 1)
	if err := errors.Join(err3, err5); err != nil {
		t.Fatal(err)
	}
	specs := []sweep.Spec{fig3, fig5}
	eng := sweep.New(sweep.Options{Workers: 2, Store: store})
	for _, pass := range []string{"cold", "warm"} {
		out, err := eng.Run(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		add("sweep-"+pass, "%s jobs=%d executed=%d", store.take(), len(out.Jobs), out.Executed)
	}

	store = &tally{s: sweep.NewMemStore()}
	srv := serve.New(serve.Options{Store: store, Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	wallMS := regexp.MustCompile(`"wall_ms": *[0-9.e+-]+`)
	for _, pass := range []string{"cold", "warm"} {
		runs := srv.Metrics().EngineRuns()
		resp, err := http.Post(ts.URL+"/v1/run", "application/json",
			strings.NewReader(`{"kind":"experiment","experiment":"ablation-rmwstyle","seeds":[1,2]}`))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		var r serve.Response
		if err == nil {
			err = json.Unmarshal(body, &r)
		}
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s request: status %d, %v\n%s", pass, resp.StatusCode, err, body)
		}
		add("serve-"+pass, "%s jobs=%d executed=%d engine_runs=%d resp_bytes=%d", store.take(),
			r.Jobs, r.Executed, srv.Metrics().EngineRuns()-runs, len(wallMS.ReplaceAll(body, []byte(`"wall_ms":0`))))
	}

	if *machine.Update {
		out := regexp.MustCompile(`<=\d+`).ReplaceAllStringFunc(strings.Join(rows, "\n")+"\n", func(c string) string {
			v, _ := strconv.Atoi(c[2:])
			v, p := v*6/5, 1
			for v/p >= 100 {
				p *= 10
			}
			return fmt.Sprintf("<=%d", v/p*p)
		})
		if err := os.WriteFile(ledgerGolden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := goldenRows(t)
	if len(want) != len(rows) {
		t.Fatalf("%d ledger rows, %s has %d; re-bless with -update", len(rows), ledgerGolden, len(want))
	}
	for i, got := range rows {
		if !cellsHold(got, want[i]) {
			t.Errorf("ledger row moved:\n got  %s\n want %s", got, want[i])
		}
	}
}

// buildShapes are the build rows' PE counts and references a PE.
var buildShapes = [][2]int{{32, 2500}, {32, 0}, {64, 0}}

// coreRow returns a core-<shape> machine's cells over 20 000 cycles after
// a 100 000-cycle warm-up; core-profiled is core-private with an MRC
// profiler attached.
func coreRow(t *testing.T, shape string) string {
	cfg, agents := machine.CoreShape(t, strings.Replace(shape, "profiled", "private", 1))
	agents, nextCalls := machine.CountNext(agents)
	m := machine.MustNew(cfg, agents)
	touches := func() uint64 { return 0 }
	if shape == "profiled" {
		set := mrc.Attach(m)
		touches = func() uint64 {
			n := set.Global.Refs()
			for _, p := range set.PerPE {
				n += p.Refs()
			}
			return n
		}
	}
	if err := m.RunFor(100_000); err != nil {
		t.Fatal(err)
	}
	before, calls, touched := m.Metrics(), nextCalls(), touches()
	visits, err := m.RunCountingNews(20_000)
	if err != nil {
		t.Fatal(err)
	}
	after := m.Metrics()
	return fmt.Sprintf("bus_txns=%d refs=%d wait_cycles=%d news_visits=%d next_calls=%d touches=%d",
		after.Bus.Transactions()-before.Bus.Transactions(), after.TotalRefs()-before.TotalRefs(),
		after.Bus.WaitCycles-before.Bus.WaitCycles, visits, nextCalls()-calls, touches()-touched)
}

// buildRow returns what building pes RB PEs with 2048-line caches and PDE
// agents of refs references (0 unbounded) allocates.
func buildRow(pes, refs int) string {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	agents := make([]workload.Agent, pes)
	for i := range agents {
		agents[i] = workload.MustApp(workload.PDEProfile(), workload.DefaultLayout(), i, 1, refs)
	}
	machine.MustNew(machine.Config{Protocol: coherence.New(coherence.KindRB), CacheLines: 2048}, agents)
	runtime.ReadMemStats(&after)
	return fmt.Sprintf("bytes<=%d allocs<=%d", after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs)
}

// TestNewsVisitsPerCycle re-measures the core-saturated and core-sync
// rows' news_visits cell, the request-line phase's work.
func TestNewsVisitsPerCycle(t *testing.T) { coreCell(t, "news_visits") }

// TestNextCallsPerCycle re-measures their next_calls cell, the CPU
// phase's work; a spin skipped while parked is not a call.
func TestNextCallsPerCycle(t *testing.T) { coreCell(t, "next_calls") }

func coreCell(t *testing.T, cell string) {
	if machine.RaceEnabled {
		t.Skip("slow under the race detector; run without -race")
	}
	for _, shape := range []string{"saturated", "sync"} {
		t.Run(shape, func(t *testing.T) { checkCell(t, "core-"+shape, coreRow(t, shape), cell) })
	}
}

// TestConstructionBytesFollowTheRun re-measures the build rows' bytes
// ceilings.
func TestConstructionBytesFollowTheRun(t *testing.T) {
	if machine.RaceEnabled {
		t.Skip("race detector instrumentation allocates; run without -race")
	}
	for _, tc := range buildShapes {
		checkCell(t, fmt.Sprintf("build-%dpe-%drefs", tc[0], tc[1]), buildRow(tc[0], tc[1]), "bytes")
	}
}

// checkCell fails t unless the named cell of a measured row holds against
// the same cell of the golden row.
func checkCell(t *testing.T, row, got, cell string) {
	t.Helper()
	named := func(cells string) string {
		for _, c := range strings.Fields(cells) {
			if name, _, _ := strings.Cut(strings.Replace(c, "<=", "=", 1), "="); name == cell {
				return c
			}
		}
		return ""
	}
	for _, line := range goldenRows(t) {
		name, cells, _ := strings.Cut(line, " ")
		if w := named(cells); name == row && w != "" {
			if g := named(got); !cellsHold(g, w) {
				t.Errorf("%s moved: got %s, want %s", row, g, w)
			}
			return
		}
	}
	t.Fatalf("%s has no %s cell in %s", ledgerGolden, cell, row)
}

// goldenRows reads testdata/ledger.golden, a row a line.
func goldenRows(t *testing.T) []string {
	data, err := os.ReadFile(ledgerGolden)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

// cellsHold reports whether every cell of the measured row equals the
// golden row's, a ceiling ("name<=v") at or below it.
func cellsHold(got, want string) bool {
	g, w := strings.Fields(got), strings.Fields(want)
	ok := len(g) == len(w)
	for i := 0; ok && i < len(g); i++ {
		name, gv, ceiling := strings.Cut(g[i], "<=")
		wname, wv, _ := strings.Cut(w[i], "<=")
		gn, _ := strconv.Atoi(gv)
		wn, err := strconv.Atoi(wv)
		ok = g[i] == w[i] || ceiling && name == wname && err == nil && gn <= wn
	}
	return ok
}

// tally counts the calls that reach a store, raw ones included.
type tally struct {
	s *sweep.MemStore
	n [4]atomic.Int64 // Get, Put, GetRaw, PutRaw
}

func (c *tally) Get(k string) (*sweep.Result, bool, error) { c.n[0].Add(1); return c.s.Get(k) }
func (c *tally) Put(r *sweep.Result) error                 { c.n[1].Add(1); return c.s.Put(r) }
func (c *tally) GetRaw(k string) ([]byte, bool, error)     { c.n[2].Add(1); return c.s.GetRaw(k) }
func (c *tally) PutRaw(k string, p []byte) error           { c.n[3].Add(1); return c.s.PutRaw(k, p) }

// take returns the counts as ledger cells and zeroes them.
func (c *tally) take() string {
	return fmt.Sprintf("gets=%d puts=%d get_raws=%d put_raws=%d",
		c.n[0].Swap(0), c.n[1].Swap(0), c.n[2].Swap(0), c.n[3].Swap(0))
}
