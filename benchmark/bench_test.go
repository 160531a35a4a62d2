package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"testing"

	"repro/internal/cluster"
	"repro/internal/serve"
)

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n, want, p int
	}{
		{1000, 99, 99}, {999, 99, 95}, {1000, 95, 95},
		{200, 95, 95}, {199, 95, 90}, {100, 95, 90},
		{99, 95, 75}, {40, 95, 75}, {39, 95, 50}, {3, 95, 50},
	} {
		if got := tailPercent(c.n, c.want); got != c.p {
			t.Errorf("tailPercent(%d, %d) = %d, want %d", c.n, c.want, got, c.p)
		}
	}
	// The percentile read leaves at least ten samples beyond it.
	sample := make([]float64, 200)
	for i := range sample {
		sample[i] = float64(i + 1)
	}
	if got := tail(sample, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (ten samples beyond)", got)
	}
	if got := median(sample); got != 100 {
		t.Errorf("median of 1..200 = %v, want 100", got)
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := iqrShare(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

func testShardOf(t *testing.T) func(string) int {
	return func(body string) int {
		id, err := serve.ComputeRequestID([]byte(body), serve.Options{})
		if err != nil {
			t.Fatalf("plan drew an invalid spec %s: %v", body, err)
		}
		return cluster.ShardOf(id, cluster.DefaultNumShards)
	}
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	const n, block = 600, 50
	a, b, c := buildPlan(7, n, block, nil), buildPlan(7, n, block, nil), buildPlan(8, n, block, nil)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different plan at %d: %+v vs %+v", i, a[i], b[i])
		}
		same = same && a[i].body == c[i].body
	}
	if same {
		t.Fatal("different seeds drew the same plan")
	}
	classes := map[reqClass]int{}
	for _, p := range a {
		classes[p.class]++
	}
	for class := classWarm; class <= classProfiled; class++ {
		if classes[class] == 0 {
			t.Errorf("plan has no request of class %d", class)
		}
	}
	if share := float64(classes[classWarm]) / n; share < 0.65 || share > 0.85 {
		t.Errorf("warm share %.2f, want about 0.75", share)
	}
}

func TestClusterPlanSkewsOddBlocksOntoOneShard(t *testing.T) {
	const n, block = 600, 50
	shardOf := testShardOf(t)
	plain, skewed := buildPlan(7, n, block, nil), buildPlan(7, n, block, shardOf)
	hot := -1
	for i := range plain {
		p, s := plain[i], skewed[i]
		if p.class != s.class || p.warm != s.warm {
			t.Fatalf("request %d: class or warm pick differs between the two plans", i)
		}
		odd := (i/block)%2 == 1
		if !odd || p.class == classWarm {
			if p.body != s.body {
				t.Fatalf("request %d: body differs outside the skewed requests", i)
			}
		}
		if p.class == classWarm {
			continue
		}
		if hot < 0 {
			hot = shardOf(s.body)
		}
		if odd && shardOf(s.body) != hot {
			t.Errorf("request %d: never-seen spec of an odd block lands on shard %d, want %d", i, shardOf(s.body), hot)
		}
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", StartUS: 0, EndUS: 1000},
		{ID: 2, Parent: 1, Name: "handler", StartUS: 100, EndUS: 900},
		{ID: 3, Parent: 2, Name: "get", StartUS: 200, EndUS: 300},
		{ID: 4, Parent: 2, Name: "run", StartUS: 250, EndUS: 600}, // overlaps get: counted once
		{ID: 5, Parent: 2, Name: "put", StartUS: 850, EndUS: 950}, // runs past its parent: clipped
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{1: 0.2, 2: 0.35, 3: 0.1, 4: 0.35, 5: 0.1} {
		if math.Abs(self[id]-want) > 1e-9 {
			t.Errorf("self time of span %d = %v ms, want %v", id, self[id], want)
		}
	}
	tr := newTracer()
	outer := tr.begin("outer", "", 0, "k")
	if got := tr.causeOf("k"); got != outer {
		t.Errorf("causeOf(k) = %d, want the open span %d", got, outer)
	}
	tr.pause(true)
	if id := tr.begin("dropped", "", 0); id != 0 {
		t.Errorf("a paused tracer recorded span %d", id)
	}
	tr.pause(false)
	tr.end(outer, "k")
	if got := tr.causeOf("k"); got != 0 {
		t.Errorf("causeOf(k) = %d after the span ended", got)
	}
	if n := len(tr.snapshot()); n != 1 {
		t.Errorf("%d spans recorded, want 1", n)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"slower latency", lower, steady, []float64{115, 116, 114, 115, 115}, "regressed"},
		{"faster latency", lower, steady, []float64{80, 81, 79, 80, 80}, "ok"},
		{"lower throughput", higher, steady, []float64{85, 86, 84, 85, 85}, "regressed"},
		{"within bound", higher, steady, []float64{95, 96, 94, 95, 95}, "ok"},
		{"too noisy to tell", lower, []float64{60, 100, 140, 100, 100}, []float64{70, 120, 150, 110, 110}, "unresolved"},
		{"noisy but every run better", lower, []float64{160, 200, 240, 200, 200}, []float64{50, 100, 150, 100, 100}, "ok"},
	} {
		if got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestManifestIsBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifest()) {
		t.Error("../BENCHMARK.json differs from the registry; regenerate it with: go run . -manifest > ../BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 {
			t.Errorf("workload %q: bad or repeated name, or a why over 200 characters (%d)", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	hasSetup := false
	for _, m := range allMetrics() {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric %q: bad or repeated name", m.Name)
		}
		seen[m.Name] = true
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %q: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Layer == "" && (m.Bound <= 0 || m.Bound > 0.25) {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup || len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("registry outside the contract: setup_s %v, %d workloads, %d end-to-end, %d per-layer",
			hasSetup, len(workloads), len(endToEnd), len(perLayer))
	}
}

// TestSmokeRunsEveryWorkload runs all seven workloads at 1/200 size,
// untraced and traced, with every correctness check on, and checks that
// the registry and what the harness emits are the same set of names.
func TestSmokeRunsEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	emitted := map[string]bool{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, spans, err := runWorkload(w, 1, 0.2, traced, true)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.Name, traced, res.Failed, res.Attempted, res.Failures)
			}
			if res.GoMaxProcs < 1 || res.NProc < 1 || res.Seed != 1 || len(res.Samples) == 0 {
				t.Errorf("%s: result does not record gomaxprocs, nproc, seed and sample counts: %+v", w.Name, res)
			}
			if _, err := contractLine(res); err != nil {
				t.Errorf("%s traced=%v: %v", w.Name, traced, err)
			}
			for name, v := range res.Metrics {
				emitted[name] = true
				def, _ := metricByName(name)
				if (def.Layer == "") == traced {
					t.Errorf("%s traced=%v emitted %s", w.Name, traced, name)
				}
				if !traced && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, v.Value)
				}
			}
			if traced && len(spans) == 0 {
				t.Errorf("%s: the traced run recorded no spans", w.Name)
			}
			if traced && w.Name == "sweep-paper" && !(res.Metrics["batch.speedup"].Value > 0) {
				t.Errorf("sweep-paper: batch.speedup = %v", res.Metrics["batch.speedup"].Value)
			}
		}
	}
	for _, m := range allMetrics() {
		if !emitted[m.Name] {
			t.Errorf("metric %s is in the registry but no workload emitted it", m.Name)
		}
	}
	if entries, err := os.ReadDir(".scratch"); err == nil && len(entries) > 0 {
		t.Errorf("%d entries left behind in .scratch", len(entries))
	}
}
