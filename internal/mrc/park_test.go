package mrc

import (
	"encoding/json"
	"testing"

	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/workload"
)

// hidden hides its agent's Spinner methods, so a machine running it never
// parks.
type hidden struct{ workload.Agent }

// TestProfiledSpinnersUnchanged profiles a TTS spin-lock machine twice,
// once with its agents' Spinner hidden, and requires byte-identical
// curves and Metrics. PE0 holds the lock until cycle 10 000 and the
// profiler is attached at 5 000, when every spinner of the parking
// machine is parked: a probe must wake them, and a probed cache never
// parks again.
func TestProfiledSpinnersUnchanged(t *testing.T) {
	run := func(hide bool) ([]byte, []byte) {
		agents := make([]workload.Agent, 8)
		agents[0] = workload.NewTrace(workload.Compute(10_000), workload.Write(100, 0, coherence.ClassShared))
		for i := 1; i < len(agents); i++ {
			agents[i] = workload.MustSpinlock(workload.SpinlockConfig{
				Lock: 100, Strategy: workload.StrategyTTS,
				CriticalReads: 3, CriticalWrites: 3, GuardedBase: 200, GuardedWords: 8,
				ThinkCycles: 20, Seed: uint64(i + 1),
			})
			if hide {
				agents[i] = hidden{agents[i]}
			}
		}
		m, err := machine.New(machine.Config{Protocol: coherence.NewRWB(2), CacheLines: 64, CacheWays: 2}, agents)
		if err != nil {
			t.Fatal(err)
		}
		m.Memory().Poke(100, 1)
		if err := m.RunFor(5_000); err != nil {
			t.Fatal(err)
		}
		set := Attach(m)
		if err := m.RunFor(20_000); err != nil {
			t.Fatal(err)
		}
		docs, err := json.Marshal(set.Docs(DefaultSizes()))
		if err != nil {
			t.Fatal(err)
		}
		mt, err := json.Marshal(m.Metrics())
		if err != nil {
			t.Fatal(err)
		}
		return docs, mt
	}
	refDocs, refMetrics := run(true)
	docs, mt := run(false)
	if string(docs) != string(refDocs) {
		t.Errorf("curves differ:\n got %s\nwant %s", docs, refDocs)
	}
	if string(mt) != string(refMetrics) {
		t.Errorf("Metrics differ:\n got %s\nwant %s", mt, refMetrics)
	}
}
