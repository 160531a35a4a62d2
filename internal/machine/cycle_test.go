package machine

import (
	"math/bits"
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

// TestNewsVisitsPerCycle pins the request-line phase's work: the caches in
// the has-news set summed over 20 000 cycles after a 100 000-cycle warm-up
// (before about 100 000 cycles core-saturated's PEs are still filling their
// caches and issue half the references a cycle they do later). The count
// is a function of the simulation alone, so it must match exactly. It
// reads 1.76 visits a cycle on core-saturated and 3.63 on core-sync; it
// read 7.80 and 10.63 while every snoop hit and every in-cache hit was
// news, whatever set the pending operation was in.
func TestNewsVisitsPerCycle(t *testing.T) {
	if raceEnabled {
		t.Skip("slow under the race detector; run without -race")
	}
	for _, tc := range []struct {
		shape  string
		visits int
	}{
		{"saturated", 35_238},
		{"sync", 72_688},
	} {
		t.Run(tc.shape, func(t *testing.T) {
			m := coreMachine(t, tc.shape)
			if err := m.RunFor(100_000); err != nil {
				t.Fatal(err)
			}
			visits := 0
			for range 20_000 {
				m.cycle++
				m.busPhase()
				m.cpuPhase()
				for _, w := range m.news {
					visits += bits.OnesCount64(w)
				}
				m.snoopPhase()
			}
			if m.err != nil {
				t.Fatal(m.err)
			}
			t.Logf("%d news visits, %.2f a cycle", visits, float64(visits)/20_000)
			if visits != tc.visits {
				t.Errorf("%d news visits in 20 000 cycles, want %d", visits, tc.visits)
			}
		})
	}
}

// TestNextCallsPerCycle pins the CPU phase's work the way
// TestNewsVisitsPerCycle pins the request-line phase's: the agents' Next
// calls over the same 20 000-cycle window, counted by a wrapper that
// leaves every Spinner parkable, so a skipped spin is not a call. It reads
// 2.42 calls a cycle on core-sync, which made 182 223 (9.11 a cycle)
// before its spinners parked; core-saturated's PDE agents never park.
func TestNextCallsPerCycle(t *testing.T) {
	if raceEnabled {
		t.Skip("slow under the race detector; run without -race")
	}
	for _, tc := range []struct {
		shape string
		calls uint64
	}{
		{"saturated", 129_791},
		{"sync", 48_394},
	} {
		t.Run(tc.shape, func(t *testing.T) {
			cfg, agents := coreShape(t, tc.shape)
			agents, counted := countAgents(agents, true)
			m := MustNew(cfg, agents)
			calls := func() (n uint64) {
				for _, a := range counted {
					n += a.nextCalls - a.skipped
				}
				return n
			}
			if err := m.RunFor(100_000); err != nil {
				t.Fatal(err)
			}
			before := calls()
			if err := m.RunFor(20_000); err != nil {
				t.Fatal(err)
			}
			got := calls() - before
			t.Logf("%d Next calls, %.2f a cycle", got, float64(got)/20_000)
			if got != tc.calls {
				t.Errorf("%d Next calls in 20 000 cycles, want %d", got, tc.calls)
			}
		})
	}
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
