package machine

import (
	"testing"

	"repro/internal/workload"
)

// TestTwoPhaseMutualExclusion: the locked-bus Test-and-Set realization
// serializes acquisitions machine-wide under every protocol, with the
// oracle silent.
func TestTwoPhaseMutualExclusion(t *testing.T) {
	for _, proto := range []string{"rb", "rwb", "goodman", "illinois", "writethrough", "nocache"} {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			t.Parallel()
			const pes, iters = 4, 15
			var agents []workload.Agent
			var locks []*workload.Spinlock
			for i := 0; i < pes; i++ {
				s := workload.MustSpinlock(workload.SpinlockConfig{
					Lock: 100, Strategy: workload.StrategyTS, Iterations: iters,
					CriticalReads: 2, CriticalWrites: 2,
					GuardedBase: 200, GuardedWords: 4,
					Seed: uint64(i),
				})
				locks = append(locks, s)
				agents = append(agents, s)
			}
			m := MustNew(Config{
				Protocol:         protoOrDie(t, proto),
				TwoPhaseRMW:      true,
				CheckConsistency: true,
				StallCycles:      200000,
			}, agents)
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
			if total != pes*iters {
				t.Fatalf("acquisitions = %d, want %d", total, pes*iters)
			}
		})
	}
}

// TestTwoPhaseCostsTwoTransactionsPerAttempt: each spinning attempt is a
// locked read plus an unlocking write — double the fused RMW's bus cost.
func TestTwoPhaseCostsTwoTransactionsPerAttempt(t *testing.T) {
	run := func(twoPhase bool) float64 {
		const pes, iters = 6, 15
		var agents []workload.Agent
		var locks []*workload.Spinlock
		for i := 0; i < pes; i++ {
			s := workload.MustSpinlock(workload.SpinlockConfig{
				Lock: 100, Strategy: workload.StrategyTS, Iterations: iters,
				CriticalReads: 3, CriticalWrites: 3,
				GuardedBase: 200, GuardedWords: 8,
				Seed: uint64(i),
			})
			locks = append(locks, s)
			agents = append(agents, s)
		}
		m := MustNew(Config{
			TwoPhaseRMW:      twoPhase,
			CheckConsistency: true,
			StallCycles:      200000,
		}, agents)
		if _, err := m.Run(20_000_000); err != nil {
			t.Fatal(err)
		}
		if !m.Done() {
			t.Fatal("not done")
		}
		attempts := 0
		for _, s := range locks {
			attempts += s.Attempts()
		}
		mt := m.Metrics()
		return float64(mt.Bus.Transactions()) / float64(attempts)
	}
	fused := run(false)
	two := run(true)
	if two < fused*1.3 {
		t.Fatalf("two-phase %.2f txns/attempt not well above fused %.2f", two, fused)
	}
}

// TestTwoPhaseRandomWorkloadsConsistent: randomized traffic with
// Test-and-Sets under the locked-bus realization passes the oracle on
// every protocol.
func TestTwoPhaseRandomWorkloadsConsistent(t *testing.T) {
	for _, proto := range []string{"rb", "rwb", "goodman", "illinois"} {
		agents := []workload.Agent{
			workload.NewRandom(0, 24, 300, 0.4, 0.15, 1),
			workload.NewRandom(0, 24, 300, 0.4, 0.15, 2),
			workload.NewRandom(0, 24, 300, 0.3, 0.20, 3),
		}
		m := MustNew(Config{
			Protocol:         protoOrDie(t, proto),
			CacheLines:       16,
			TwoPhaseRMW:      true,
			CheckConsistency: true,
			StallCycles:      200000,
		}, agents)
		if _, err := m.Run(2_000_000); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if !m.Done() {
			t.Fatalf("%s: not done", proto)
		}
		if err := m.VerifyFinalMemory(); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
	}
}

// TestTwoPhaseLocalFastPathStillApplies: a PE holding the lock line
// exclusively completes Test-and-Set without the bus even in two-phase
// mode.
func TestTwoPhaseLocalFastPathStillApplies(t *testing.T) {
	agent := workload.NewTrace(
		workload.Write(8, 0, 0), // take the line Local (RB)
		workload.TestSet(8, 1),  // in-cache
		workload.TestSet(8, 1),  // in-cache, fails
	)
	m := MustNew(Config{TwoPhaseRMW: true, CheckConsistency: true}, []workload.Agent{agent})
	if _, err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	mt := m.Metrics()
	// Only the initial write touched the bus.
	if got := mt.Bus.Transactions(); got != 1 {
		t.Fatalf("bus transactions = %d, want 1", got)
	}
	if mt.Caches[0].LocalRMWs != 2 {
		t.Fatalf("local RMWs = %d, want 2", mt.Caches[0].LocalRMWs)
	}
}
