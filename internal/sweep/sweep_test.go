package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/report"
)

// fakeSpecs builds a small mixed job set: two seed-replicated
// experiments and one axis-free one.
func fakeSpecs(seeds []uint64) []Spec {
	return []Spec{
		{Experiment: "fake-a", Version: 1, Axes: experiments.Axes{Seed: true, Scale: true}, Seeds: seeds, Scale: 1},
		{Experiment: "fake-flat", Version: 1, Seeds: seeds, Scale: 1},
		{Experiment: "fake-b", Version: 2, Axes: experiments.Axes{Seed: true}, Seeds: seeds, Scale: 1},
	}
}

// fakeRunner deterministically derives a table from the job spec, with a
// seed-dependent numeric column so aggregation has something to do. The
// busy loop varies per job to scramble parallel completion order.
func fakeRunner(spec JobSpec) (*report.Table, error) {
	spin := int(spec.Seed%7) * 1000
	x := 0
	for i := 0; i < spin; i++ {
		x += i
	}
	_ = x
	t := &report.Table{
		ID:      spec.Experiment,
		Title:   "fake " + spec.Experiment,
		Columns: []string{"label", "metric"},
	}
	t.AddRowf(spec.Experiment, float64(spec.Seed*10+uint64(spec.Scale)))
	t.AddRowf("constant", 42.0)
	return t, nil
}

// countingRunner wraps a runner with an execution counter.
func countingRunner(r Runner, n *atomic.Int64) Runner {
	return func(spec JobSpec) (*report.Table, error) {
		n.Add(1)
		return r(spec)
	}
}

// storeBytes renders a MemStore's objects in key order, one
// "key payload" line each: the whole completion record.
func storeBytes(m *MemStore) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]string, 0, len(m.objects))
	for k := range m.objects {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	for _, k := range keys {
		b.WriteString(k + " ")
		b.Write(m.objects[k])
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// renderAll flattens an outcome's merged tables to bytes.
func renderAll(out *Outcome) []byte {
	var b bytes.Buffer
	for _, tb := range out.Tables {
		b.WriteString(tb.Plain())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestExpandAxesAndOrder(t *testing.T) {
	for _, tc := range []struct {
		seeds     []uint64
		wantSeeds []uint64
		wantExp   []string
	}{
		// fake-a: seeds 3,1 (dup dropped); fake-flat: collapsed to seed 1;
		// fake-b: seeds 3,1.
		{[]uint64{3, 1, 3}, []uint64{3, 1, 1, 3, 1}, []string{"fake-a", "fake-a", "fake-flat", "fake-b", "fake-b"}},
		// Seed 0 runs as seed 1, so it is the same replica, not a second.
		{[]uint64{0, 1}, []uint64{1, 1, 1}, []string{"fake-a", "fake-flat", "fake-b"}},
	} {
		jobs := Expand(fakeSpecs(tc.seeds))
		if len(jobs) != len(tc.wantSeeds) {
			t.Fatalf("seeds %v: got %d jobs, want %d", tc.seeds, len(jobs), len(tc.wantSeeds))
		}
		keys := map[string]bool{}
		for i, j := range jobs {
			if j.Index != i {
				t.Errorf("seeds %v: job %d has index %d", tc.seeds, i, j.Index)
			}
			if j.Spec.Seed != tc.wantSeeds[i] || j.Spec.Experiment != tc.wantExp[i] {
				t.Errorf("seeds %v: job %d = %s seed %d, want %s seed %d",
					tc.seeds, i, j.Spec.Experiment, j.Spec.Seed, tc.wantExp[i], tc.wantSeeds[i])
			}
			if keys[j.Key] {
				t.Errorf("seeds %v: duplicate key %s", tc.seeds, j.Key)
			}
			keys[j.Key] = true
		}
	}
	// Keys are content hashes: version changes must change them.
	a := JobSpec{Experiment: "x", Version: 1, Seed: 1, Scale: 1}
	b := a
	b.Version = 2
	if a.Key() == b.Key() {
		t.Error("version bump did not invalidate the cache key")
	}
}

// TestDeterministicAcrossWorkers is the engine's core contract: the
// merged report and the store's objects are byte-identical whether the sweep ran
// on one worker or many — with the fake runner, and with the registry's
// parameter-free artifacts plus one real multi-seed simulation (fig7-1)
// through the default ExperimentRunner.
func TestDeterministicAcrossWorkers(t *testing.T) {
	var real []Spec
	for _, id := range []string{"fig3-1", "fig5-1", "fig6-1", "fig6-2", "fig6-3", "section7-sbb", "fig7-1"} {
		sp, err := SpecFor(id, []uint64{1, 2}, 1)
		if err != nil {
			t.Fatal(err)
		}
		real = append(real, sp)
	}
	for _, tc := range []struct {
		name   string
		specs  []Spec
		runner Runner // nil = the engine's own experiment runners
	}{
		{"fake", fakeSpecs([]uint64{1, 2, 3, 4, 5}), fakeRunner},
		{"real", real, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.runner == nil && testing.Short() {
				t.Skip("runs real experiments")
			}
			serialStore := NewMemStore()
			serial, err := New(Options{Workers: 1, Store: serialStore, Runner: tc.runner}).
				Run(context.Background(), tc.specs)
			if err != nil {
				t.Fatal(err)
			}
			for workers := 2; workers <= 8; workers *= 2 {
				parStore := NewMemStore()
				par, err := New(Options{Workers: workers, Store: parStore, Runner: tc.runner}).
					Run(context.Background(), tc.specs)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(renderAll(serial), renderAll(par)) {
					t.Errorf("workers=%d: merged report differs from serial", workers)
				}
				if !bytes.Equal(storeBytes(serialStore), storeBytes(parStore)) {
					t.Errorf("workers=%d: stored objects differ from serial", workers)
				}
			}
			// The DirStore's files (checksummed envelopes) are content
			// too: a serial and a parallel run write the same bytes.
			var files [2][]byte
			for i, workers := range []int{1, 4} {
				dir := t.TempDir()
				ds, err := OpenDirStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := New(Options{Workers: workers, Store: ds, Runner: tc.runner}).
					Run(context.Background(), tc.specs); err != nil {
					t.Fatal(err)
				}
				files[i] = dirBytes(t, dir)
			}
			if !bytes.Equal(files[0], files[1]) {
				t.Error("DirStore object files differ between a serial and a parallel run")
			}
		})
	}
}

// dirBytes renders a DirStore's object files in name order, one
// "name bytes" line each.
func dirBytes(t *testing.T, dir string) []byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "objects", "*.json"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no objects in %s: %v", dir, err)
	}
	sort.Strings(names)
	var b bytes.Buffer
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(filepath.Base(name) + " ")
		b.Write(data)
	}
	return b.Bytes()
}

// TestWarmCacheExecutesNothing: a warm pass runs no job and writes
// nothing. Each pass's exact store traffic is in the machine package's
// ledger (rows sweep-cold and sweep-warm).
func TestWarmCacheExecutesNothing(t *testing.T) {
	specs := fakeSpecs([]uint64{1, 2, 3})
	mem := NewMemStore()
	var n atomic.Int64
	eng := New(Options{Workers: 4, Store: mem, Runner: countingRunner(fakeRunner, &n)})
	cold, err := eng.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Executed != len(cold.Jobs) || cold.CacheHits != 0 {
		t.Fatalf("cold run: executed %d cached %d of %d", cold.Executed, cold.CacheHits, len(cold.Jobs))
	}
	before, stored := n.Load(), storeBytes(mem)
	warm, err := eng.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Executed != 0 || warm.CacheHits != len(warm.Jobs) {
		t.Errorf("warm run: executed %d cached %d, want 0/%d", warm.Executed, warm.CacheHits, len(warm.Jobs))
	}
	if n.Load() != before {
		t.Errorf("warm run invoked the runner %d times", n.Load()-before)
	}
	if !bytes.Equal(renderAll(cold), renderAll(warm)) {
		t.Error("warm merged report differs from cold")
	}
	if !bytes.Equal(storeBytes(mem), stored) {
		t.Error("the warm pass changed the store")
	}
}

// TestLookupIsAnAllHitRun: on a full store Lookup returns what a warm
// one-worker Run returns (tables, per-spec stats, events with the walls
// masked) and leaves the store alone; one object short, it reports a
// miss, emits nothing and runs nothing.
func TestLookupIsAnAllHitRun(t *testing.T) {
	specs := fakeSpecs([]uint64{1, 2, 3})
	store := NewMemStore()
	if _, err := New(Options{Store: store, Runner: fakeRunner}).Run(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	masked := func(h *Hub) []Event {
		evs := h.Snapshot()
		for i := range evs {
			evs[i].WallMS = 0
		}
		return evs
	}
	runHub, lookHub := NewHub(), NewHub()
	ran, err := New(Options{Workers: 1, Store: store, Runner: fakeRunner, Sink: runHub}).Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	stored := storeBytes(store)
	var n atomic.Int64
	eng := New(Options{Store: store, Runner: countingRunner(fakeRunner, &n), Sink: lookHub})
	looked, ok, err := eng.Lookup(specs)
	if err != nil || !ok {
		t.Fatalf("Lookup on a full store: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(renderAll(ran), renderAll(looked)) {
		t.Error("Lookup's merged report differs from a warm Run's")
	}
	if looked.Executed != 0 || looked.CacheHits != len(ran.Jobs) || len(looked.Jobs) != len(ran.Jobs) {
		t.Errorf("Lookup: executed %d cached %d of %d jobs", looked.Executed, looked.CacheHits, len(looked.Jobs))
	}
	for i, st := range looked.Stats {
		st.Wall, ran.Stats[i].Wall = 0, 0
		if st != ran.Stats[i] {
			t.Errorf("spec %d stats: Lookup %+v, Run %+v", i, st, ran.Stats[i])
		}
	}
	want, got := masked(runHub), masked(lookHub)
	if len(got) != len(want) {
		t.Fatalf("Lookup emitted %d events, a warm Run %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: Lookup %+v, Run %+v", i, got[i], want[i])
		}
	}
	if !bytes.Equal(storeBytes(store), stored) {
		t.Error("Lookup wrote to the store")
	}

	store.mu.Lock()
	delete(store.objects, ran.Jobs[len(ran.Jobs)-1].Job.Key)
	store.mu.Unlock()
	if out, ok, err := eng.Lookup(specs); out != nil || ok || err != nil {
		t.Fatalf("Lookup one object short: out=%v ok=%v err=%v", out, ok, err)
	}
	if len(lookHub.Snapshot()) != len(want) {
		t.Error("a missed Lookup emitted events")
	}
	if n.Load() != 0 {
		t.Errorf("Lookup invoked the runner %d times", n.Load())
	}
}

// TestKillAndResume interrupts a sweep by cancelling the context after k
// jobs, then verifies the resumed sweep executes exactly the missing jobs
// and produces the same bytes as an uninterrupted run.
func TestKillAndResume(t *testing.T) {
	specs := fakeSpecs([]uint64{1, 2, 3, 4})
	total := len(Expand(specs))
	const k = 4
	if total <= k {
		t.Fatalf("want more than %d jobs, got %d", k, total)
	}

	// Reference: uninterrupted serial run.
	ref, err := New(Options{Workers: 1, Runner: fakeRunner}).Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}

	store := NewMemStore()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n atomic.Int64
	killer := func(spec JobSpec) (*report.Table, error) {
		tb, err := fakeRunner(spec)
		if n.Add(1) == k {
			cancel()
		}
		return tb, err
	}
	_, err = New(Options{Workers: 1, Store: store, Runner: killer}).Run(ctx, specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	if n.Load() != k {
		t.Fatalf("interrupted run executed %d jobs, want %d", n.Load(), k)
	}
	if got := bytes.Count(storeBytes(store), []byte("\n")); got != k {
		t.Fatalf("interrupted store holds %d objects, want %d", got, k)
	}

	var resumed atomic.Int64
	out, err := New(Options{Workers: 2, Store: store, Runner: countingRunner(fakeRunner, &resumed)}).
		Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(resumed.Load()); got != total-k {
		t.Errorf("resume executed %d jobs, want %d", got, total-k)
	}
	if out.CacheHits != k {
		t.Errorf("resume cache hits %d, want %d", out.CacheHits, k)
	}
	if !bytes.Equal(renderAll(ref), renderAll(out)) {
		t.Error("resumed merged report differs from uninterrupted run")
	}
	if got := bytes.Count(storeBytes(store), []byte("\n")); got != total {
		t.Errorf("final store holds %d objects, want %d", got, total)
	}
}

// TestHardKillResume simulates a hard kill against the on-disk store:
// some objects never landed and one was torn mid-write. The next process
// opens the store again, and its resumed sweep must execute exactly the
// missing and the torn jobs. A cold sweep writes no journal, and one
// left in the directory by an older layout is not read.
func TestHardKillResume(t *testing.T) {
	specs := fakeSpecs([]uint64{1, 2, 3, 4})
	dir := t.TempDir()
	store, err := OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(Options{Workers: 3, Store: store, Runner: fakeRunner}).
		Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	total := len(full.Jobs)
	journal := filepath.Join(dir, "journal.jsonl")
	if _, err := os.Stat(journal); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a cold sweep left a journal: %v", err)
	}

	// Keep the first `keep` objects, tear the next, delete the rest; a
	// stale journal claims every job done.
	const keep = 3
	var stale bytes.Buffer
	for i, j := range full.Jobs {
		fmt.Fprintf(&stale, "{\"key\":%q}\n", j.Job.Key)
		path := filepath.Join(dir, "objects", j.Job.Key+".json")
		switch {
		case i < keep:
		case i == keep:
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		default:
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := os.WriteFile(journal, stale.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if store, err = OpenDirStore(dir); err != nil {
		t.Fatal(err)
	}

	var n atomic.Int64
	out, err := New(Options{Workers: 2, Store: store, Runner: countingRunner(fakeRunner, &n)}).
		Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(n.Load()); got != total-keep {
		t.Errorf("resume executed %d jobs, want %d", got, total-keep)
	}
	if out.CacheHits != keep || store.Quarantined() != 1 {
		t.Errorf("resume: %d cache hits, %d quarantined; want %d and 1", out.CacheHits, store.Quarantined(), keep)
	}
	if !bytes.Equal(renderAll(full), renderAll(out)) {
		t.Error("resumed merged report differs from the original run")
	}
	if data, err := os.ReadFile(journal); err != nil || !bytes.Equal(data, stale.Bytes()) {
		t.Errorf("the stale journal was touched: %v", err)
	}
}

// TestDirStoreRefusesPathKeys: a key that is not one plain file name is
// an error on every access and reaches no file, in objects/ or outside.
func TestDirStoreRefusesPathKeys(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenDirStore(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	const key = "a/../b"
	if err := store.PutRaw(key, []byte(`{}`)); err == nil {
		t.Error("PutRaw accepted a key with a path in it")
	}
	if _, ok, err := store.GetRaw(key); err == nil || ok {
		t.Errorf("GetRaw on a key with a path in it: ok=%v err=%v", ok, err)
	}
	if err := store.Put(&Result{Key: key}); err == nil {
		t.Error("Put accepted a key with a path in it")
	}
	if _, ok, err := store.Get(key); err == nil || ok {
		t.Errorf("Get on a key with a path in it: ok=%v err=%v", ok, err)
	}
	objects, err := os.ReadDir(filepath.Join(dir, "store", "objects"))
	if err != nil || len(objects) != 0 {
		t.Errorf("objects/ holds %d entries after refused writes (err %v)", len(objects), err)
	}
	if _, err := os.Stat(filepath.Join(dir, "store", "b.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a refused key reached a file outside objects/: %v", err)
	}
}

func TestDirStoreRoundTripAndVersioning(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Experiment: "fake-a", Version: 1, Seed: 7, Scale: 2}
	tb, _ := fakeRunner(spec)
	if err := store.Put(&Result{Key: spec.Key(), Spec: spec, Table: tb}); err != nil {
		t.Fatal(err)
	}
	got, ok, err := store.Get(spec.Key())
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if got.Table.Plain() != tb.Plain() {
		t.Error("round-tripped table differs")
	}
	if _, ok, _ := store.Get("no-such-key"); ok {
		t.Error("phantom object")
	}

	// An incompatible layout version clears the store.
	if err := os.WriteFile(dir+"/VERSION", []byte("sweep-store-v0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	store2, err := OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := store2.Get(spec.Key()); ok {
		t.Error("object survived a store-version bump")
	}
	if v, err := os.ReadFile(dir + "/VERSION"); err != nil || strings.TrimSpace(string(v)) != storeVersion {
		t.Errorf("VERSION not rewritten: %q %v", v, err)
	}
}

func TestAggregate(t *testing.T) {
	mk := func(metric string) *report.Table {
		return &report.Table{
			ID:      "agg",
			Columns: []string{"label", "metric"},
			Rows:    [][]string{{"row", metric}},
			Note:    "base note",
		}
	}
	// Single replica passes through untouched (pointer identity keeps
	// byte-identity with a direct run).
	single := mk("1.5")
	got, err := Aggregate([]*report.Table{single})
	if err != nil {
		t.Fatal(err)
	}
	if got != single {
		t.Error("single replica was not passed through")
	}

	out, err := Aggregate([]*report.Table{mk("10"), mk("20"), mk("30")})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows[0][0] != "row" {
		t.Errorf("label cell rewritten to %q", out.Rows[0][0])
	}
	cell := out.Rows[0][1]
	if !strings.Contains(cell, "20") || !strings.Contains(cell, "±10") || !strings.Contains(cell, "ci") {
		t.Errorf("aggregated cell %q missing mean/sd/ci", cell)
	}
	if !strings.Contains(out.Note, "3 seeds") || !strings.Contains(out.Note, "base note") {
		t.Errorf("note %q", out.Note)
	}

	// Identical numeric cells keep their original formatting.
	out, err = Aggregate([]*report.Table{mk("7.25"), mk("7.25")})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows[0][1] != "7.25" {
		t.Errorf("identical cells reformatted to %q", out.Rows[0][1])
	}

	// Shape mismatches are errors, not silent misalignment.
	bad := mk("1")
	bad.Rows = append(bad.Rows, []string{"extra", "2"})
	if _, err := Aggregate([]*report.Table{mk("1"), bad}); err == nil {
		t.Error("row-count mismatch not rejected")
	}
}

func TestEventsStream(t *testing.T) {
	var buf bytes.Buffer
	specs := fakeSpecs([]uint64{1, 2})
	if _, err := New(Options{Workers: 2, Runner: fakeRunner, Sink: NewWriterSink(&buf)}).
		Run(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	var starts, dones, sweeps int
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		switch {
		case strings.Contains(line, `"event":"start"`):
			starts++
		case strings.Contains(line, `"event":"done"`):
			dones++
		case strings.Contains(line, `"event":"sweep"`):
			sweeps++
		default:
			t.Errorf("unrecognized event line %q", line)
		}
		if !strings.HasPrefix(line, "{") || !strings.HasSuffix(line, "}") {
			t.Errorf("event line is not one JSON object: %q", line)
		}
	}
	total := len(Expand(specs))
	if starts != total || dones != total || sweeps != 1 {
		t.Errorf("got %d starts, %d dones, %d sweeps; want %d/%d/1", starts, dones, sweeps, total, total)
	}
}

func TestRunnerErrorAborts(t *testing.T) {
	boom := func(spec JobSpec) (*report.Table, error) {
		if spec.Seed == 2 {
			return nil, fmt.Errorf("boom")
		}
		return fakeRunner(spec)
	}
	_, err := New(Options{Workers: 2, Runner: boom}).
		Run(context.Background(), fakeSpecs([]uint64{1, 2, 3}))
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want job error", err)
	}
}

// TestExperimentRunnerIntegration drives cheap registry experiments
// through the real runner and checks the merged output matches a direct
// experiment run byte for byte.
func TestExperimentRunnerIntegration(t *testing.T) {
	ids := []string{"fig3-1", "fig6-1", "section7-sbb"}
	var specs []Spec
	for _, id := range ids {
		sp, err := SpecFor(id, []uint64{1, 2}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Axes.Seed {
			t.Fatalf("%s unexpectedly declares a seed axis", id)
		}
		specs = append(specs, sp)
	}
	out, err := New(Options{Workers: 2}).Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != len(ids) { // axis-free: one job each despite 2 seeds
		t.Fatalf("expanded to %d jobs, want %d", len(out.Jobs), len(ids))
	}
	for i, id := range ids {
		e, err := experiments.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := e.Run(experiments.Params{Seed: 1, Scale: 1})
		if err != nil {
			t.Fatal(err)
		}
		if out.Tables[i].Plain() != direct.Plain() {
			t.Errorf("%s: sweep output differs from direct run", id)
		}
	}

	// A stale spec version is refused, not silently served.
	stale := specs[0]
	stale.Version = 99
	if _, err := New(Options{Workers: 1}).Run(context.Background(), []Spec{stale}); err == nil {
		t.Error("stale experiment version accepted")
	}
}
