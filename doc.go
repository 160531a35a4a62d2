// Package repro is a full reproduction of Rudolph & Segall, "Dynamic
// Decentralized Cache Schemes for MIMD Parallel Processors" (CMU-CS-84-139,
// ISCA 1984): the RB and RWB snooping cache-coherence protocols, the
// Test-and-Test-and-Set synchronization idiom, the Section 4 consistency
// proof (mechanized as a product-machine model checker), and the Section 7
// shared-bus bandwidth analysis — all on top of a cycle-stepped
// shared-bus multiprocessor simulator written from scratch.
//
// This root package is the public facade: it re-exports the types a user
// needs to assemble machines, choose protocols, generate workloads, run
// the paper's experiments, and model-check protocol variants. The
// subsystems live in internal/ packages (bus, cache, coherence, machine,
// workload, check, experiments, ...) and the runnable entry points in
// cmd/.
//
// Quick start:
//
//	agents := []repro.Agent{
//		repro.NewSpinlock(repro.SpinlockConfig{Lock: 100, Strategy: repro.StrategyTTS, Iterations: 50}),
//		repro.NewSpinlock(repro.SpinlockConfig{Lock: 100, Strategy: repro.StrategyTTS, Iterations: 50}),
//	}
//	m, err := repro.NewMachine(repro.MachineConfig{Protocol: repro.RB(), CheckConsistency: true}, agents)
//	...
//	m.Run(1_000_000)
//	fmt.Println(m.Metrics().Bus.Transactions())
package repro
