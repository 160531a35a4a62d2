package batch

import (
	"fmt"
	"testing"

	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/workload"
)

func appAgents(seed uint64) []workload.Agent {
	layout := workload.DefaultLayout()
	agents := make([]workload.Agent, 4)
	for i := range agents {
		agents[i] = workload.MustApp(workload.QuicksortProfile(), layout, i, seed, 300)
	}
	return agents
}

var cfg = machine.Config{Protocol: coherence.New(coherence.KindRB), CacheLines: 64, CheckConsistency: true}

// metricsOf drives a machine to completion and fingerprints the run.
func metricsOf(t *testing.T, m *machine.Machine) string {
	t.Helper()
	if _, err := m.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	if !m.Done() {
		t.Fatal("machine not done")
	}
	return fmt.Sprintf("%+v", m.Metrics())
}

// TestArenaRecyclesPerShape checks the arena's bookkeeping and that a
// recycled machine's results match a fresh one's per seed.
func TestArenaRecyclesPerShape(t *testing.T) {
	a := New()
	seeds := []uint64{5, 6, 7}
	for _, seed := range seeds {
		seed := seed
		m, err := a.Machine("shape-a", cfg, seed, func() []workload.Agent { return appAgents(seed) })
		if err != nil {
			t.Fatal(err)
		}
		got := metricsOf(t, m)
		want := metricsOf(t, machine.MustNew(cfg, appAgents(seed)))
		if got != want {
			t.Errorf("seed %d: recycled metrics differ from fresh", seed)
		}
	}
	if a.Trials() != len(seeds) || a.Reuses() != len(seeds)-1 {
		t.Errorf("trials=%d reuses=%d, want %d/%d", a.Trials(), a.Reuses(), len(seeds), len(seeds)-1)
	}
	// A different shape gets its own machine, not a reset of shape-a's.
	if _, err := a.Machine("shape-b", cfg, 5, func() []workload.Agent { return appAgents(5) }); err != nil {
		t.Fatal(err)
	}
	if a.Reuses() != len(seeds)-1 {
		t.Errorf("new shape counted as a reuse")
	}
}

// TestArenaRunStreams drives the streaming entry point across seeds and
// compares each trial against a fresh machine.
func TestArenaRunStreams(t *testing.T) {
	a := New()
	seeds := []uint64{1, 2, 3, 4}
	got := make(map[uint64]string)
	err := a.Run("s", cfg, seeds, func() []workload.Agent { return appAgents(seeds[0]) },
		func(seed uint64, m *machine.Machine) error {
			got[seed] = metricsOf(t, m)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		want := metricsOf(t, machine.MustNew(cfg, appAgents(seed)))
		if got[seed] != want {
			t.Errorf("seed %d: streamed metrics differ from fresh", seed)
		}
	}
	if a.Trials() != len(seeds) || a.Reuses() != len(seeds)-1 {
		t.Errorf("trials=%d reuses=%d, want %d/%d", a.Trials(), a.Reuses(), len(seeds), len(seeds)-1)
	}
}

// TestSteadyStateTrialAllocFree pins the batch runner's headline number:
// once a shape's machine exists, a whole trial — generation reset plus
// the full simulation — allocates (near) nothing. This is the trial-level
// analogue of the cycle loop's 0 allocs/cycle gate.
func TestSteadyStateTrialAllocFree(t *testing.T) {
	m := machine.MustNew(cfg, appAgents(1))
	metricsOf(t, m) // warm up: populate pages, presence masks, plan memos
	run := func(_ uint64, m *machine.Machine) error {
		if _, err := m.Run(2_000_000); err != nil {
			return err
		}
		if !m.Done() {
			t.Fatal("machine not done")
		}
		return nil
	}
	seeds := []uint64{0}
	allocs := testing.AllocsPerRun(5, func() {
		seeds[0]++
		if err := stream(m, seeds, run); err != nil {
			t.Fatal(err)
		}
	})
	// Tolerate a stray allocation or two (lazy page revival growth on a
	// previously unseen address); the construction path this replaces
	// costs hundreds of thousands.
	if allocs > 2 {
		t.Errorf("steady-state trial allocates %.0f times, want ~0", allocs)
	}
}
