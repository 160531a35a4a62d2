package machine

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/workload"
)

// TestSteadyStateAllocFree is the allocation regression of the flat-core
// refactor: after warmup, the cycle loop must not allocate at all —
// RB/RWB x 1/8/64/65/130 PEs x oracle on or off, one bus, 2048-line
// direct-mapped caches, unbounded Table 1-1 application agents (65 and
// 130 PEs: a second and third word of every per-PE bitmap and plane of
// the holder table). The
// assertion runs only without the race detector (raceEnabled), whose
// instrumentation allocates on its own.
func TestSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; run without -race")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, proto := range []string{"rb", "rwb"} {
		for _, pes := range []int{1, 8, 64, 65, 130} {
			for _, oracle := range []bool{false, true} {
				name := fmt.Sprintf("%s-%dpe", proto, pes)
				if oracle {
					name += "-oracle"
				}
				t.Run(name, func(t *testing.T) {
					layout := workload.DefaultLayout()
					agents := make([]workload.Agent, pes)
					for i := range agents {
						agents[i] = workload.MustApp(workload.PDEProfile(), layout, i, 1, 0)
					}
					m, err := New(Config{
						Protocol:         protoOrDie(t, proto),
						CacheLines:       2048,
						CheckConsistency: oracle,
					}, agents)
					if err != nil {
						t.Fatal(err)
					}
					// Warm past page allocation, cache fills and scratch growth.
					if err := m.RunFor(20_000); err != nil {
						t.Fatal(err)
					}
					const chunk = 2_000
					avg := testing.AllocsPerRun(5, func() {
						if err := m.RunFor(chunk); err != nil {
							t.Fatal(err)
						}
					})
					if perCycle := avg / chunk; perCycle != 0 {
						t.Errorf("steady state allocates: %.6f allocs/cycle (%v allocs per %d cycles)",
							perCycle, avg, chunk)
					}
				})
			}
		}
	}
}

// TestConstructionBytesFollowTheRun pins what building a machine and its
// agents allocates (runtime.MemStats.TotalAlloc across the MustApp calls
// and New): RB PEs with 2048-line direct-mapped caches. An agent's LRU
// stacks start at most 4096 entries deep (maxRefs+1 when that is less) and
// grow only if its stream does, and a direct-mapped frame carries no LRU
// stamp, so 32 PEs build in about 1.2 MB at 2500 references (the Section
// 7 sweeps' shape) and 1.4 MB unbounded, and 64 unbounded PEs
// (core-saturated's shape) in 2.7 MB. Like the alloc pins it runs without
// the race detector, which allocates too.
func TestConstructionBytesFollowTheRun(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; run without -race")
	}
	const mb = 1e6
	for _, tc := range []struct {
		pes, refs int
		max       float64 // MB
	}{
		{pes: 32, refs: 2500, max: 1.4},
		{pes: 32, refs: 0, max: 1.6},
		{pes: 64, refs: 0, max: 3.3},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		layout := workload.DefaultLayout()
		agents := make([]workload.Agent, tc.pes)
		for i := range agents {
			agents[i] = workload.MustApp(workload.PDEProfile(), layout, i, 1, tc.refs)
		}
		if _, err := New(Config{Protocol: protoOrDie(t, "rb"), CacheLines: 2048}, agents); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := float64(after.TotalAlloc-before.TotalAlloc) / mb
		t.Logf("%d PEs, refs %d: construction allocated %.2f MB", tc.pes, tc.refs, got)
		if got > tc.max {
			t.Errorf("%d PEs, refs %d: construction allocated %.2f MB, want at most %.2f", tc.pes, tc.refs, got, tc.max)
		}
	}
}
