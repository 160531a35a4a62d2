package machine

import (
	"fmt"
	"testing"

	"repro/internal/workload"
)

// allocShape is one machine TestSteadyStateAllocFree runs. warm is the
// cycles it runs before the measurement (20 000 when zero): long enough
// that its memory and holder-table pages are all in place. parks marks a
// shape whose spinners must be parked at some point of the measurement,
// so the pin covers the parked path.
type allocShape struct {
	name  string
	warm  uint64
	parks bool
	build func(t *testing.T) *Machine
}

// pdeShape builds pes unbounded Table 1-1 application agents on a machine
// of cfg running proto.
func pdeShape(name, proto string, pes int, cfg Config) allocShape {
	return allocShape{name: name, build: func(t *testing.T) *Machine {
		layout := workload.DefaultLayout()
		agents := make([]workload.Agent, pes)
		for i := range agents {
			agents[i] = workload.MustApp(workload.PDEProfile(), layout, i, 1, 0)
		}
		cfg.Protocol = protoOrDie(t, proto)
		m, err := New(cfg, agents)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}}
}

// spinShape builds 8 PEs spinning on one lock with strategy strat through
// 2-way caches on two buses, oracle on. The lock and its guarded words sit
// above address 255, so a boxed address allocates here as it would in a
// real program: Go boxes integers below 256 from a static table.
func spinShape(proto string, strat workload.Strategy, twoPhase bool) allocShape {
	name := fmt.Sprintf("spin-%s-%s", proto, strat)
	if twoPhase {
		name += "-2phase"
	}
	return allocShape{name: name, parks: strat == workload.StrategyTTS, build: func(t *testing.T) *Machine {
		agents := make([]workload.Agent, 8)
		for i := range agents {
			agents[i] = workload.MustSpinlock(workload.SpinlockConfig{
				Lock: 4196, Strategy: strat,
				CriticalReads: 3, CriticalWrites: 3, GuardedBase: 4296, GuardedWords: 8,
				ThinkCycles: 20, Seed: 1<<8 + uint64(i),
			})
		}
		m, err := New(Config{
			Protocol:         protoOrDie(t, proto),
			CacheLines:       64,
			CacheWays:        2,
			Buses:            2,
			TwoPhaseRMW:      twoPhase,
			CheckConsistency: true,
		}, agents)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}}
}

// allocShapes lists the pinned machines:
//   - RB/RWB x 1/8/64/65/130 PEs x oracle on or off, one bus, 2048-line
//     direct-mapped caches, unbounded Table 1-1 application agents (65 and
//     130 PEs: a second and third word of every per-PE bitmap and plane of
//     the holder table);
//   - the benchmark harness's core-saturated, core-private and core-sync
//     machines (coreMachine);
//   - RB/RWB x TS/TTS x fused or two-phase Test-and-Set: the Section 6
//     lock paths (Figures 6-1 to 6-3) on 2-way caches and two buses, the
//     TTS spinners parked in their caches (a TS lock issues no test read,
//     so it never parks);
//   - RB/RWB with 64 PDE PEs on 4-way caches, four buses and a memory
//     latency of 3, oracle on.
func allocShapes() []allocShape {
	var shapes []allocShape
	for _, proto := range []string{"rb", "rwb"} {
		for _, pes := range []int{1, 8, 64, 65, 130} {
			for _, oracle := range []bool{false, true} {
				name := fmt.Sprintf("%s-%dpe", proto, pes)
				if oracle {
					name += "-oracle"
				}
				shapes = append(shapes, pdeShape(name, proto, pes, Config{CacheLines: 2048, CheckConsistency: oracle}))
			}
		}
	}
	for _, core := range []string{"saturated", "private", "sync"} {
		s := allocShape{name: "core-" + core, parks: core == "sync", build: func(t *testing.T) *Machine { return coreMachine(t, core) }}
		if core == "private" {
			s.warm = 100_000 // two PEs still touch new pages at 20 000
		}
		shapes = append(shapes, s)
	}
	for _, proto := range []string{"rb", "rwb"} {
		for _, strat := range []workload.Strategy{workload.StrategyTS, workload.StrategyTTS} {
			for _, twoPhase := range []bool{false, true} {
				shapes = append(shapes, spinShape(proto, strat, twoPhase))
			}
		}
	}
	for _, proto := range []string{"rb", "rwb"} {
		shapes = append(shapes, pdeShape(proto+"-64pe-4way-4bus-lat3-oracle", proto, 64, Config{
			CacheLines: 2048, CacheWays: 4, Buses: 4, MemLatency: 3, CheckConsistency: true,
		}))
	}
	return shapes
}

// TestSteadyStateAllocFree is the cycle loop's allocation gate: after
// warmup, no shape of allocShapes may allocate at all. The assertion runs
// only without the race detector (raceEnabled), whose instrumentation
// allocates on its own.
func TestSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; run without -race")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, s := range allocShapes() {
		t.Run(s.name, func(t *testing.T) {
			m := s.build(t)
			// Warm past page allocation, cache fills and scratch growth.
			warm := s.warm
			if warm == 0 {
				warm = 20_000
			}
			if err := m.RunFor(warm); err != nil {
				t.Fatal(err)
			}
			const chunk = 2_000
			parked := false
			avg := testing.AllocsPerRun(5, func() {
				if err := m.RunFor(chunk); err != nil {
					t.Fatal(err)
				}
				for _, w := range m.parked {
					parked = parked || w != 0
				}
			})
			if s.parks && !parked {
				t.Errorf("no PE was parked at the end of any measured chunk: the pin does not cover parking")
			}
			if perCycle := avg / chunk; perCycle != 0 {
				t.Errorf("steady state allocates: %.6f allocs/cycle (%v allocs per %d cycles); to find the line, run\n"+
					"\tgo test ./internal/machine -run 'TestSteadyStateAllocFree/^%s$' -memprofile m.out -memprofilerate 1\n"+
					"\tgo tool pprof -sample_index=alloc_objects -top -lines m.out",
					perCycle, avg, chunk, s.name)
			}
		})
	}
}
