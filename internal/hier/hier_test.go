package hier

import (
	"testing"

	"repro/internal/workload"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Clusters: 2, PEsPerCluster: 2}, nil); err == nil {
		t.Error("mismatched agent groups accepted")
	}
	if _, err := New(Config{Clusters: 1, PEsPerCluster: 2},
		[][]workload.Agent{{workload.Idle()}}); err == nil {
		t.Error("short cluster accepted")
	}
	if _, err := New(Config{Clusters: 1, PEsPerCluster: 1, ClusterLines: 3},
		[][]workload.Agent{{workload.Idle()}}); err == nil {
		t.Error("bad cluster cache size accepted")
	}
}

// mustNew is New failing the test on error.
func mustNew(t *testing.T, cfg Config, agents [][]workload.Agent) *Machine {
	t.Helper()
	m, err := New(cfg, agents)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// groups builds a Clusters x PEsPerCluster agent matrix from a generator.
func groups(clusters, pes int, gen func(c, p int) workload.Agent) [][]workload.Agent {
	out := make([][]workload.Agent, clusters)
	for c := range out {
		out[c] = make([]workload.Agent, pes)
		for p := range out[c] {
			out[c][p] = gen(c, p)
		}
	}
	return out
}

func TestSingleWriteReadAcrossClusters(t *testing.T) {
	// PE (0,0) writes; PE (1,0) reads the value after a delay.
	agents := groups(2, 1, func(c, p int) workload.Agent {
		if c == 0 {
			return workload.NewTrace(workload.Write(5, 42, 0))
		}
		return workload.NewTrace(workload.Compute(50), workload.Read(5, 0))
	})
	m := mustNew(t, Config{Clusters: 2, PEsPerCluster: 1, CheckConsistency: true}, agents)
	if _, err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	if !m.Done() {
		t.Fatal("not done")
	}
	if m.Memory().Peek(5) != 42 {
		t.Fatal("write did not reach memory")
	}
}

// TestRandomWorkloadsConsistent is the hierarchy's oracle test: shared
// random traffic across 4 clusters x 2 PEs with reads checked against the
// global serialization order.
func TestRandomWorkloadsConsistent(t *testing.T) {
	agents := groups(4, 2, func(c, p int) workload.Agent {
		return workload.NewRandom(0, 32, 300, 0.4, 0.1, uint64(c*10+p+1))
	})
	m := mustNew(t, Config{
		Clusters: 4, PEsPerCluster: 2,
		L1Lines: 16, ClusterLines: 64,
		CheckConsistency: true,
	}, agents)
	if _, err := m.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	if !m.Done() {
		t.Fatal("machine did not drain")
	}
}

// TestSmallClusterCacheForcesInclusionEvictions exercises the inclusive
// eviction path (cluster victim invalidating L1 copies) under the oracle.
func TestSmallClusterCacheForcesInclusionEvictions(t *testing.T) {
	agents := groups(2, 2, func(c, p int) workload.Agent {
		return workload.NewRandom(0, 64, 400, 0.3, 0.05, uint64(c*7+p+1))
	})
	m := mustNew(t, Config{
		Clusters: 2, PEsPerCluster: 2,
		L1Lines: 8, ClusterLines: 8, // cluster smaller than the footprint
		CheckConsistency: true,
	}, agents)
	if _, err := m.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	if !m.Done() {
		t.Fatal("machine did not drain")
	}
}

// TestMachineWideMutualExclusion: spinlocks contending across cluster
// boundaries still serialize (the adapter delegates RMWs to the global
// bus).
func TestMachineWideMutualExclusion(t *testing.T) {
	const clusters, pes, iters = 2, 2, 10
	var locks []*workload.Spinlock
	agents := groups(clusters, pes, func(c, p int) workload.Agent {
		s := workload.MustSpinlock(workload.SpinlockConfig{
			Lock: 100, Strategy: workload.StrategyTTS, Iterations: iters,
			CriticalReads: 2, CriticalWrites: 2,
			GuardedBase: 200, GuardedWords: 4,
			Seed: uint64(c*10 + p),
		})
		locks = append(locks, s)
		return s
	})
	m := mustNew(t, Config{Clusters: clusters, PEsPerCluster: pes, CheckConsistency: true}, agents)
	if _, err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if !m.Done() {
		t.Fatal("deadlocked")
	}
	total := 0
	for _, s := range locks {
		total += s.Acquisitions()
	}
	if total != clusters*pes*iters {
		t.Fatalf("acquisitions = %d, want %d", total, clusters*pes*iters)
	}
}

// TestBarrierAcrossClusters: the sense-reversing barrier spans clusters.
func TestBarrierAcrossClusters(t *testing.T) {
	const clusters, pes, rounds = 2, 2, 5
	var barriers []*workload.Barrier
	agents := groups(clusters, pes, func(c, p int) workload.Agent {
		b := workload.MustBarrier(workload.BarrierConfig{
			Lock: 0, Counter: 1, Sense: 2, Progress: 16,
			Participants: clusters * pes, Rounds: rounds,
			WorkCycles: 1 + 5*(c*pes+p),
			ID:         c*pes + p,
		})
		barriers = append(barriers, b)
		return b
	})
	m := mustNew(t, Config{Clusters: clusters, PEsPerCluster: pes, CheckConsistency: true}, agents)
	if _, err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if !m.Done() {
		t.Fatal("barrier deadlocked")
	}
	for i, b := range barriers {
		if b.Rounds() != rounds {
			t.Errorf("PE %d: %d rounds", i, b.Rounds())
		}
		if err := b.Err(); err != nil {
			t.Error(err)
		}
	}
}

// TestClusterCacheFiltersGlobalTraffic is the hierarchy's reason to
// exist: read-heavy workloads mostly hit the cluster cache, so the global
// bus sees a small fraction of the local traffic.
func TestClusterCacheFiltersGlobalTraffic(t *testing.T) {
	// Tiny L1s (to force local misses) with a big cluster cache.
	agents := groups(2, 4, func(c, p int) workload.Agent {
		return workload.NewRandom(0, 128, 600, 0.05, 0, uint64(c*10+p+1))
	})
	m := mustNew(t, Config{
		Clusters: 2, PEsPerCluster: 4,
		L1Lines: 8, ClusterLines: 512,
		CheckConsistency: true,
	}, agents)
	if _, err := m.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if !m.Done() {
		t.Fatal("not done")
	}
	mt := m.Metrics()
	if mt.ClusterHits == 0 {
		t.Fatal("cluster cache never hit")
	}
	if fr := mt.FilterRatio(); fr < 0.5 {
		t.Fatalf("filter ratio = %.2f, want most local traffic kept off the global bus", fr)
	}
	if mt.TotalRefs == 0 || len(mt.Locals) != 2 {
		t.Fatalf("metrics shape: %+v", mt)
	}
}

// TestGlobalLatencyStretchesRuntime: adding global memory latency slows
// the machine but changes no results.
func TestGlobalLatencyStretchesRuntime(t *testing.T) {
	run := func(lat int) uint64 {
		agents := groups(2, 2, func(c, p int) workload.Agent {
			return workload.NewRandom(0, 64, 200, 0.5, 0, uint64(c*10+p+1))
		})
		m := mustNew(t, Config{
			Clusters: 2, PEsPerCluster: 2,
			GlobalLatency:    lat,
			CheckConsistency: true,
		}, agents)
		if _, err := m.Run(5_000_000); err != nil {
			t.Fatal(err)
		}
		if !m.Done() {
			t.Fatal("not done")
		}
		return m.Metrics().Cycles
	}
	fast, slow := run(0), run(4)
	if slow <= fast {
		t.Fatalf("latency 4 ran in %d cycles, latency 0 in %d", slow, fast)
	}
}

// TestProducerConsumerAcrossClusters: the cyclical write-then-read-by-
// others pattern works across the hierarchy.
func TestProducerConsumerAcrossClusters(t *testing.T) {
	const items = 10
	cons := workload.NewConsumer(10, 11, items)
	agents := [][]workload.Agent{
		{workload.NewProducer(10, 11, items, 30)},
		{cons},
	}
	m := mustNew(t, Config{Clusters: 2, PEsPerCluster: 1, CheckConsistency: true}, agents)
	if _, err := m.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if cons.Received() != items {
		t.Fatalf("consumed %d of %d", cons.Received(), items)
	}
}

// TestStaleFetchRace is the regression test for a subtle hierarchy bug: a
// completed global read awaiting its local consumer must be dropped when
// another cluster writes the same address in between — otherwise the
// waiting PE reads a value from before the write. High contention on few
// words with busy local buses maximizes the window.
func TestStaleFetchRace(t *testing.T) {
	agents := groups(4, 4, func(c, p int) workload.Agent {
		return workload.NewRandom(0, 8, 500, 0.3, 0.02, uint64(c*13+p+1))
	})
	m := mustNew(t, Config{
		Clusters: 4, PEsPerCluster: 4,
		L1Lines: 8, ClusterLines: 32,
		CheckConsistency: true,
	}, agents)
	if _, err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if !m.Done() {
		t.Fatal("machine did not drain")
	}
}

// TestHierMetricsShape sanity-checks the aggregate accessors.
func TestHierMetricsShape(t *testing.T) {
	agents := groups(2, 1, func(c, p int) workload.Agent {
		return workload.NewRandom(0, 16, 50, 0.2, 0, uint64(c+1))
	})
	m := mustNew(t, Config{Clusters: 2, PEsPerCluster: 1, CheckConsistency: true}, agents)
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	mt := m.Metrics()
	if mt.TotalRefs != 100 {
		t.Fatalf("TotalRefs = %d", mt.TotalRefs)
	}
	if mt.LocalTransactions() == 0 || mt.Global.Transactions() == 0 {
		t.Fatal("no traffic counted")
	}
	if fr := mt.FilterRatio(); fr < 0 || fr > 1 {
		t.Fatalf("FilterRatio = %v", fr)
	}
	var empty Metrics
	if empty.FilterRatio() != 0 {
		t.Fatal("empty FilterRatio != 0")
	}
	// Accessors reach each level.
	if m.Global() == nil || m.Local(0) == nil || m.Cache(0, 0) == nil || m.Proc(1, 0) == nil {
		t.Fatal("accessors broken")
	}
	if m.Cycle() == 0 || m.Err() != nil {
		t.Fatal("cycle/err accessors broken")
	}
}
