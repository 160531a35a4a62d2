package machine

import (
	"fmt"
	"testing"

	"repro/internal/workload"
)

// TestSteadyStateAllocFree is the allocation regression of the flat-core
// refactor: after warmup, the cycle loop must not allocate at all —
// RB/RWB x 1/8/64/65/130 PEs x oracle on or off, one bus, 2048-line
// direct-mapped caches, unbounded Table 1-1 application agents (65 and
// 130 PEs: a second and third word of every per-PE bitmap, and broadcast
// snooping in place of the presence table). The
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
