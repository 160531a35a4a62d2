package machine

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/workload"
)

// coreMachine builds the machine of the benchmark harness's core-<shape>
// workload at seed 1: "saturated" is RB with 64 PDE PEs and 2 048-line
// caches, "private" RWB(2) with 2 of them, and "sync" RWB(2) with 16 PEs
// spinning TTS on one lock through 64-line caches.
func coreMachine(tb testing.TB, shape string) *Machine {
	tb.Helper()
	m, err := New(coreShape(tb, shape))
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// coreShape returns coreMachine's configuration and agents.
func coreShape(tb testing.TB, shape string) (cfg Config, agents []workload.Agent) {
	tb.Helper()
	switch shape {
	case "saturated", "private":
		cfg = Config{Protocol: coherence.New(coherence.KindRB), CacheLines: 2048}
		pes := 64
		if shape == "private" {
			cfg.Protocol, pes = coherence.NewRWB(2), 2
		}
		agents = make([]workload.Agent, pes)
		for i := range agents {
			agents[i] = workload.MustApp(workload.PDEProfile(), workload.DefaultLayout(), i, 1, 0)
		}
	case "sync":
		cfg = Config{Protocol: coherence.NewRWB(2), CacheLines: 64}
		agents = make([]workload.Agent, 16)
		for i := range agents {
			agents[i] = workload.MustSpinlock(workload.SpinlockConfig{
				Lock: 100, Strategy: workload.StrategyTTS,
				CriticalReads: 3, CriticalWrites: 3, GuardedBase: 200, GuardedWords: 8,
				ThinkCycles: 20, Seed: 1<<8 + uint64(i),
			})
		}
	default:
		tb.Fatalf("unknown shape %q", shape)
	}
	return cfg, agents
}

// BenchmarkCycle times one cycle of each core-* machine after a 20 000-
// cycle warm-up; with -cpuprofile it gives the cycle's phase split without
// the benchmark harness.
func BenchmarkCycle(b *testing.B) {
	for _, shape := range []string{"saturated", "private", "sync"} {
		b.Run(shape, func(b *testing.B) {
			m := coreMachine(b, shape)
			if err := m.RunFor(20_000); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := m.RunFor(uint64(b.N)); err != nil {
				b.Fatal(err)
			}
		})
	}
}
