package machine

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/coherence"
	"repro/internal/workload"
)

// countingAgent counts what its PE did from the outside: the Next calls
// (one per cycle the PE issued in) and the compute operations that take
// cycles (whose first cycle is the cycle of the Next call). It hides its
// agent's Spinner methods; countingSpinner keeps them.
type countingAgent struct {
	workload.Agent
	nextCalls, computeOps uint64
	skipped               uint64 // spins credited through SkipSpins
}

// countingSpinner is a countingAgent the machine can still park: each
// skipped spin counts as the Next call it stands for.
type countingSpinner struct{ *countingAgent }

func (a countingSpinner) Spinning(v bus.Word) (bus.Addr, coherence.Class, bool) {
	return a.Agent.(workload.Spinner).Spinning(v)
}

func (a countingSpinner) SkipSpins(n uint64) {
	a.nextCalls += n
	a.skipped += n
	a.Agent.(workload.Spinner).SkipSpins(n)
}

// countAgents wraps every agent in a countingAgent, and with keepSpinner
// every Spinner in a countingSpinner.
func countAgents(agents []workload.Agent, keepSpinner bool) ([]workload.Agent, []*countingAgent) {
	counted := make([]*countingAgent, len(agents))
	for i, a := range agents {
		counted[i] = &countingAgent{Agent: a}
		agents[i] = counted[i]
		if _, ok := a.(workload.Spinner); ok && keepSpinner {
			agents[i] = countingSpinner{counted[i]}
		}
	}
	return agents, counted
}

func (a *countingAgent) Next(r workload.Result) workload.Op {
	a.nextCalls++
	op := a.Agent.Next(r)
	if op.Kind == workload.OpCompute && op.Cycles > 0 {
		a.computeOps++
	}
	return op
}

// TestEveryCycleAccountedFor checks the lazily credited stall counters
// against a count the machine has no hand in: a PE spends each cycle
// issuing (a Next call, or a spin skipped while parked), blocked (a stall
// cycle), or in the second or a later cycle of a compute operation, so
// after every Step of every non-halted PE the three add up to the clock —
// read through Metrics(), which must include the stall of PEs still
// blocked and the spins of PEs still parked.
func TestEveryCycleAccountedFor(t *testing.T) {
	spinners := func(pes int) []workload.Agent {
		agents := make([]workload.Agent, pes)
		for i := range agents {
			agents[i] = workload.MustSpinlock(workload.SpinlockConfig{
				Lock: 100, Strategy: workload.StrategyTTS,
				CriticalReads: 3, CriticalWrites: 3, GuardedBase: 200, GuardedWords: 8,
				ThinkCycles: 20, Seed: uint64(i + 1),
			})
		}
		return agents
	}
	apps := func(pes int) []workload.Agent {
		agents := make([]workload.Agent, pes)
		for i := range agents {
			agents[i] = workload.MustApp(workload.PDEProfile(), workload.DefaultLayout(), i, 1, 0)
		}
		return agents
	}
	cases := []struct {
		name   string
		cfg    Config
		agents []workload.Agent
		steps  int
		parked bool // the machine may park Spinners
	}{
		// Two words of every bitmap and holder mask, a saturated bus.
		{"rb-65pe", Config{Protocol: coherence.New(coherence.KindRB), CacheLines: 64}, apps(65), 4000, false},
		// Deliveries that leave the PE blocked (the unlock leg), think-time
		// computes, and snoop-phase resolutions of the spin reads.
		{"rwb-16pe-tts-twophase", Config{Protocol: coherence.NewRWB(2), CacheLines: 64, TwoPhaseRMW: true},
			spinners(16), 20000, false},
		// The same spinners parked: every skipped spin is credited by the
		// time Step returns.
		{"rwb-16pe-tts-parked", Config{Protocol: coherence.NewRWB(2), CacheLines: 64},
			spinners(16), 20000, true},
		// Bus-hold cycles, and PEs that halt part-way through the run.
		{"memlatency-3", Config{Protocol: coherence.New(coherence.KindRB), CacheLines: 64, MemLatency: 3},
			[]workload.Agent{
				workload.NewRandom(0, 24, 300, 0.4, 0.1, 1),
				workload.NewRandom(0, 24, 900, 0.4, 0.1, 2),
				workload.NewRandom(0, 24, 100_000, 0.3, 0.2, 3),
			}, 8000, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.CheckConsistency = true
			agents, counted := countAgents(tc.agents, tc.parked)
			m := MustNew(tc.cfg, agents)
			var stalls uint64
			for step := 1; step <= tc.steps; step++ {
				if err := m.Step(); err != nil {
					t.Fatal(err)
				}
				mt := m.Metrics()
				stalls = 0
				for i, p := range mt.Procs {
					stalls += p.StallCycles
					if m.Proc(i).Halted() {
						continue
					}
					got := counted[i].nextCalls + p.StallCycles + (p.ComputeCycles - counted[i].computeOps)
					if got != mt.Cycles {
						t.Fatalf("cycle %d PE %d: %d Next calls + %d stall cycles + %d compute continuations = %d",
							mt.Cycles, i, counted[i].nextCalls, p.StallCycles, p.ComputeCycles-counted[i].computeOps, got)
					}
				}
			}
			if stalls == 0 {
				t.Fatal("no PE ever stalled: the run does not exercise the stall credit")
			}
			var skipped uint64
			for _, a := range counted {
				skipped += a.skipped
			}
			if tc.parked && skipped == 0 {
				t.Fatal("no spin was skipped: the run does not exercise the spin credit")
			}
		})
	}
}
