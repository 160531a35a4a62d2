package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/report"
)

// TestPanicRecoveryDrainsQueue is the regression test for the worker
// panic path: one job deterministically panics, the run keeps draining
// the rest, the failure carries the panicking stack, and the events
// stream journals it — no wedged pool, no lost results, non-nil error.
func TestPanicRecoveryDrainsQueue(t *testing.T) {
	var executed atomic.Int64
	runner := func(spec JobSpec) (*report.Table, error) {
		executed.Add(1)
		if spec.Seed == 2 {
			panic("poisoned cell")
		}
		return fakeRunner(spec)
	}
	var events bytes.Buffer
	eng := New(Options{Workers: 4, Runner: runner, Sink: NewWriterSink(&events)})
	specs := []Spec{{
		Experiment: "fake-a", Version: 1,
		Axes: fakeSpecs(nil)[0].Axes, Seeds: []uint64{1, 2, 3, 4}, Scale: 1,
	}}
	out, err := eng.Run(context.Background(), specs)
	var summary *FailureSummary
	if !errors.As(err, &summary) {
		t.Fatalf("Run returned %v, want a *FailureSummary", err)
	}
	if out == nil {
		t.Fatal("Run returned a nil outcome alongside the failure summary")
	}
	if got := executed.Load(); got != 4 {
		t.Errorf("executed %d jobs, want 4 (queue must drain past the panic)", got)
	}
	if len(out.Failed) != 1 || len(summary.Failures) != 1 {
		t.Fatalf("got %d outcome failures / %d summary failures, want 1/1", len(out.Failed), len(summary.Failures))
	}
	var pe *PanicError
	if !errors.As(out.Failed[0].Err, &pe) {
		t.Fatalf("failure error is %T, want *PanicError", out.Failed[0].Err)
	}
	if !strings.Contains(pe.Error(), "poisoned cell") || !strings.Contains(pe.Error(), "goroutine") {
		t.Errorf("panic error lacks value or stack: %s", pe.Error())
	}
	if out.Failed[0].Job.Spec.Seed != 2 {
		t.Errorf("failed job has seed %d, want 2", out.Failed[0].Job.Spec.Seed)
	}
	// The three healthy replicas still produced a merged table.
	if len(out.Tables) != 1 || out.Tables[0] == nil {
		t.Fatalf("expected a merged table from the surviving replicas, got %+v", out.Tables)
	}
	// The failure (with stack) is on the events stream.
	var sawFailed bool
	for _, raw := range strings.Split(events.String(), "\n") {
		if strings.TrimSpace(raw) == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(raw), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", raw, err)
		}
		if ev.Event == "failed" {
			sawFailed = true
			if !strings.Contains(ev.Error, "poisoned cell") || !strings.Contains(ev.Error, "goroutine") {
				t.Errorf("failed event lacks panic value or stack: %q", ev.Error)
			}
		}
	}
	if !sawFailed {
		t.Error("events stream has no \"failed\" record")
	}
	// The panicking job must not be stored as done: a resume re-runs
	// exactly it.
	if _, ok, _ := eng.opts.Store.Get(out.Failed[0].Job.Key); ok {
		t.Error("failed job was stored as done")
	}
	if got := bytes.Count(storeBytes(eng.opts.Store.(*MemStore)), []byte("\n")); got != 3 {
		t.Errorf("store holds %d objects, want 3 (the successful jobs)", got)
	}
}

// TestPanickingJobReRunsOnResume closes the loop: after a run with a
// panic, a second run over the same store re-executes only the failed job.
func TestPanickingJobReRunsOnResume(t *testing.T) {
	store, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs := []Spec{{
		Experiment: "fake-a", Version: 1,
		Axes: fakeSpecs(nil)[0].Axes, Seeds: []uint64{1, 2, 3}, Scale: 1,
	}}
	poison := atomic.Bool{}
	poison.Store(true)
	var executed atomic.Int64
	runner := func(spec JobSpec) (*report.Table, error) {
		executed.Add(1)
		if poison.Load() && spec.Seed == 2 {
			panic("first-run poison")
		}
		return fakeRunner(spec)
	}
	if _, err := New(Options{Workers: 1, Store: store, Runner: runner}).Run(context.Background(), specs); err == nil {
		t.Fatal("first run unexpectedly succeeded")
	}
	poison.Store(false)
	executed.Store(0)
	out, err := New(Options{Workers: 1, Store: store, Runner: runner}).Run(context.Background(), specs)
	if err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if got := executed.Load(); got != 1 {
		t.Errorf("resume executed %d jobs, want 1 (only the previously failed one)", got)
	}
	if out.CacheHits != 2 || out.Executed != 1 {
		t.Errorf("resume: %d cache hits / %d executed, want 2/1", out.CacheHits, out.Executed)
	}
}

// TestJobTimeout pins the wall-clock budget: a hung runner is abandoned,
// the job fails with a TimeoutError, and the other jobs complete.
func TestJobTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	runner := func(spec JobSpec) (*report.Table, error) {
		if spec.Seed == 2 {
			<-release // hang until the test tears down
		}
		return fakeRunner(spec)
	}
	eng := New(Options{Workers: 2, Runner: runner, JobTimeout: 50 * time.Millisecond})
	specs := []Spec{{
		Experiment: "fake-a", Version: 1,
		Axes: fakeSpecs(nil)[0].Axes, Seeds: []uint64{1, 2, 3}, Scale: 1,
	}}
	out, err := eng.Run(context.Background(), specs)
	var summary *FailureSummary
	if !errors.As(err, &summary) {
		t.Fatalf("Run returned %v, want a *FailureSummary", err)
	}
	if len(out.Failed) != 1 {
		t.Fatalf("got %d failures, want 1", len(out.Failed))
	}
	var te *TimeoutError
	if !errors.As(out.Failed[0].Err, &te) {
		t.Fatalf("failure error is %T, want *TimeoutError", out.Failed[0].Err)
	}
	if out.Failed[0].Job.Spec.Seed != 2 {
		t.Errorf("timed-out job has seed %d, want 2", out.Failed[0].Job.Spec.Seed)
	}
	if out.Executed != 2 {
		t.Errorf("executed %d, want 2 healthy jobs", out.Executed)
	}
}

// corruptOneObject finds the store's single object file and rewrites it
// with mutate, returning its path.
func corruptOneObject(t *testing.T, store *DirStore, mutate func([]byte) []byte) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(store.Dir(), "objects", "*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("expected exactly one object, got %v (err %v)", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(matches[0], mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return matches[0]
}

// TestDirStoreCorruptEntryQuarantined covers the two corruption shapes
// the resume path must survive: a truncated entry and a bit-flipped
// entry. Both must read as misses, move to quarantine/, and recompute —
// never silently load.
func TestDirStoreCorruptEntryQuarantined(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/3] }},
		{"bit-flipped", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x01
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := OpenDirStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			specs := []Spec{{Experiment: "fake-flat", Version: 1, Seeds: []uint64{1}, Scale: 1}}
			var executed atomic.Int64
			runner := countingRunner(fakeRunner, &executed)
			if _, err := New(Options{Workers: 1, Store: store, Runner: runner}).Run(context.Background(), specs); err != nil {
				t.Fatalf("seed run: %v", err)
			}
			if executed.Load() != 1 {
				t.Fatalf("seed run executed %d jobs, want 1", executed.Load())
			}
			objPath := corruptOneObject(t, store, tc.mutate)

			// The object is corrupt: the job must re-run.
			out, err := New(Options{Workers: 1, Store: store, Runner: runner}).Run(context.Background(), specs)
			if err != nil {
				t.Fatalf("rerun: %v", err)
			}
			if executed.Load() != 2 {
				t.Errorf("corrupt entry served from cache: executed %d, want 2", executed.Load())
			}
			if out.CacheHits != 0 || out.Executed != 1 {
				t.Errorf("rerun: %d hits / %d executed, want 0/1", out.CacheHits, out.Executed)
			}
			if store.Quarantined() != 1 {
				t.Errorf("Quarantined() = %d, want 1", store.Quarantined())
			}
			qPath := filepath.Join(store.Dir(), "quarantine", filepath.Base(objPath))
			if _, err := os.Stat(qPath); err != nil {
				t.Errorf("corrupt object not in quarantine: %v", err)
			}
			// The recomputed object must be healthy: a third run is a pure
			// cache hit.
			out, err = New(Options{Workers: 1, Store: store, Runner: runner}).Run(context.Background(), specs)
			if err != nil {
				t.Fatalf("third run: %v", err)
			}
			if out.CacheHits != 1 || executed.Load() != 2 {
				t.Errorf("third run: %d hits, executed total %d; want 1 hit and no new execution", out.CacheHits, executed.Load())
			}
		})
	}
}

// TestDirStoreEnvelopeRoundTrip pins the v2 framing: what Put writes, Get
// verifies and returns intact, and the raw file carries a hex digest.
func TestDirStoreEnvelopeRoundTrip(t *testing.T) {
	store, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tbl := &report.Table{ID: "x", Columns: []string{"a"}}
	tbl.AddRow("1")
	spec := JobSpec{Experiment: "x", Version: 1, Seed: 9, Scale: 1}
	if err := store.Put(&Result{Key: spec.Key(), Spec: spec, Table: tbl}); err != nil {
		t.Fatal(err)
	}
	res, ok, err := store.Get(spec.Key())
	if err != nil || !ok {
		t.Fatalf("Get = (%v, %v)", ok, err)
	}
	if res.Table.ID != "x" || len(res.Table.Rows) != 1 {
		t.Errorf("round-trip mangled the table: %+v", res.Table)
	}
	data, err := os.ReadFile(filepath.Join(store.Dir(), "objects", spec.Key()+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("object is not an envelope: %v", err)
	}
	if len(env.SHA256) != 64 {
		t.Errorf("sha256 field is %q, want 64 hex chars", env.SHA256)
	}
}
