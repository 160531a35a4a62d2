package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
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
// merged report and the journal are byte-identical whether the sweep ran
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
				if !bytes.Equal(serialStore.JournalBytes(), parStore.JournalBytes()) {
					t.Errorf("workers=%d: journal differs from serial:\nserial:\n%s\nparallel:\n%s",
						workers, serialStore.JournalBytes(), parStore.JournalBytes())
				}
			}
		})
	}
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
	before := n.Load()
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
	// The journal gained nothing on the warm pass.
	if got := bytes.Count(mem.JournalBytes(), []byte("\n")); got != len(cold.Jobs) {
		t.Errorf("journal has %d lines, want %d", got, len(cold.Jobs))
	}
}

// TestLookupIsAnAllHitRun: on a full store Lookup returns what a warm
// one-worker Run returns (tables, per-spec stats, events with the walls
// masked) and leaves the journal alone; one object short, it reports a
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
	journal := store.JournalBytes()
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
	if !bytes.Equal(store.JournalBytes(), journal) {
		t.Error("Lookup wrote to the journal")
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
	if got := bytes.Count(store.JournalBytes(), []byte("\n")); got != k {
		t.Fatalf("interrupted journal has %d lines, want %d", got, k)
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
	if got := bytes.Count(store.JournalBytes(), []byte("\n")); got != total {
		t.Errorf("final journal has %d lines, want %d", got, total)
	}
}

// TestJournalTruncationResume simulates a hard kill against the on-disk
// store: the journal is truncated to a prefix (including a torn final
// line) and the un-journaled objects are deleted; the next process opens
// the store again, and its resumed sweep must execute exactly the
// missing jobs.
func TestJournalTruncationResume(t *testing.T) {
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

	data, err := os.ReadFile(store.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != total {
		t.Fatalf("journal has %d lines, want %d", len(lines), total)
	}
	const keep = 3
	// Keep `keep` whole lines plus a torn fragment of the next — the
	// shape a killed process leaves behind.
	truncated := strings.Join(lines[:keep], "\n") + "\n" + lines[keep][:10]
	if err := os.WriteFile(store.JournalPath(), []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}
	if store, err = OpenDirStore(dir); err != nil {
		t.Fatal(err)
	}
	kept, err := store.JournalKeys()
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != keep {
		t.Fatalf("truncated journal yields %d keys, want %d (torn line must be ignored)", len(kept), keep)
	}
	for _, j := range full.Jobs {
		if !kept[j.Job.Key] {
			if err := os.Remove(dir + "/objects/" + j.Job.Key + ".json"); err != nil {
				t.Fatal(err)
			}
		}
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
	if !bytes.Equal(renderAll(full), renderAll(out)) {
		t.Error("resumed merged report differs from the original run")
	}
}

// TestReopenOnTornJournal: a store opened on a journal that ends in a
// torn line remembers exactly the whole lines, hands each caller its own
// copy of them, and a sweep over the same (still stored) jobs gives no
// remembered key a second line. The first append after the reopen ends
// the fragment, so a never-seen job run there is journaled and the
// fragment stays the file's only unparsable line.
func TestReopenOnTornJournal(t *testing.T) {
	specs := fakeSpecs([]uint64{1, 2})
	dir := t.TempDir()
	store, err := OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Store: store, Runner: fakeRunner}).Run(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(store.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	whole := strings.SplitAfter(string(data), "\n")
	whole = whole[:len(whole)-2] // SplitAfter's empty tail, then the line to tear
	torn := strings.Join(whole, "") + `{"key":"torn`
	if err := os.WriteFile(store.JournalPath(), []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	if store, err = OpenDirStore(dir); err != nil {
		t.Fatal(err)
	}
	kept, err := store.JournalKeys()
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != len(whole) {
		t.Fatalf("reopened store remembers %d keys, want the %d whole lines", len(kept), len(whole))
	}
	for _, raw := range whole {
		var line JournalLine
		if err := json.Unmarshal([]byte(raw), &line); err != nil || !kept[line.Key] {
			t.Fatalf("whole line %q not remembered (err %v)", raw, err)
		}
	}
	kept["scribble"] = true
	if again, _ := store.JournalKeys(); again["scribble"] {
		t.Fatal("JournalKeys handed out its own map, not a copy")
	}
	delete(kept, "scribble")

	// The first append after a torn tail starts a line of its own: a
	// never-seen job run now is journaled for the next open.
	fresh := []Spec{{Experiment: "fake-new", Version: 1}}
	if _, err := New(Options{Store: store, Runner: fakeRunner}).Run(context.Background(), fresh); err != nil {
		t.Fatal(err)
	}
	if store, err = OpenDirStore(dir); err != nil {
		t.Fatal(err)
	}
	if keys, _ := store.JournalKeys(); !keys[Expand(fresh)[0].Key] {
		t.Fatal("the job run on a torn journal is not journaled: its line was glued onto the fragment")
	}

	var n atomic.Int64
	if _, err := New(Options{Store: store, Runner: countingRunner(fakeRunner, &n)}).Run(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 0 {
		t.Errorf("every object survived, yet %d jobs re-ran", n.Load())
	}
	data, err = os.ReadFile(store.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string]int{}
	for _, raw := range strings.Split(string(data), "\n") {
		var line JournalLine
		if json.Unmarshal([]byte(raw), &line) == nil {
			lines[line.Key]++
		} else if raw != "" && raw != `{"key":"torn` {
			t.Errorf("journal line %q does not parse and is not the torn fragment", raw)
		}
	}
	for key := range kept {
		if lines[key] != 1 {
			t.Errorf("key %s has %d journal lines, want 1", key, lines[key])
		}
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
