package machine

import (
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/workload"
)

func TestSamplerEveryFiresOnInterval(t *testing.T) {
	m := MustNew(Config{}, []workload.Agent{workload.NewHotspot(1, 0)})
	s := NewSampler(m)
	var cycles []uint64
	s.Every(10, func(m *Machine) { cycles = append(cycles, m.Cycle()) })
	if _, err := s.Run(35); err != nil {
		t.Fatal(err)
	}
	if len(cycles) != 3 || cycles[0] != 10 || cycles[1] != 20 || cycles[2] != 30 {
		t.Fatalf("sampled at %v, want [10 20 30]", cycles)
	}
}

func TestSamplerAt(t *testing.T) {
	m := MustNew(Config{}, []workload.Agent{workload.NewHotspot(1, 0)})
	s := NewSampler(m)
	fired := uint64(0)
	s.At(7, func(m *Machine) { fired = m.Cycle() })
	s.Run(20)
	if fired != 7 {
		t.Fatalf("fired at %d, want 7", fired)
	}
}

// TestSamplerFIFOAmongEqualCycles pins the Sampler's determinism
// contract: observations due at the same cycle fire in the order they
// were registered, one-shot and periodic alike. (The event heap fired
// this case at-a,at-b,every: a re-armed periodic sorted after both.)
func TestSamplerFIFOAmongEqualCycles(t *testing.T) {
	m := MustNew(Config{}, []workload.Agent{workload.NewHotspot(1, 0)})
	s := NewSampler(m)
	var order []string
	s.At(10, func(*Machine) { order = append(order, "at-a") })
	s.Every(5, func(m *Machine) {
		if m.Cycle() == 10 {
			order = append(order, "every")
		}
	})
	s.At(10, func(*Machine) { order = append(order, "at-b") })
	s.Run(12)
	if got := strings.Join(order, ","); got != "at-a,every,at-b" {
		t.Fatalf("fired %s, want at-a,every,at-b", got)
	}
}

func TestSamplerStopsWhenMachineDone(t *testing.T) {
	m := MustNew(Config{}, []workload.Agent{workload.NewArrayInit(0, 4)})
	s := NewSampler(m)
	count := 0
	s.Every(1, func(*Machine) { count++ })
	ran, err := s.Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Done() {
		t.Fatal("machine not done")
	}
	if uint64(count) != ran {
		t.Fatalf("sampled %d times over %d cycles", count, ran)
	}
}

func TestSamplerZeroIntervalPanics(t *testing.T) {
	m := MustNew(Config{}, []workload.Agent{workload.Idle()})
	s := NewSampler(m)
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	s.Every(0, func(*Machine) {})
}

func TestSamplerAtPastCyclePanics(t *testing.T) {
	m := MustNew(Config{}, []workload.Agent{workload.NewHotspot(1, 0)})
	m.RunFor(5)
	defer func() {
		if recover() == nil {
			t.Fatal("At(3) on a machine at cycle 5 did not panic")
		}
	}()
	NewSampler(m).At(3, func(*Machine) {})
}

func TestUtilizationSeries(t *testing.T) {
	// Saturating workload: utilization near 1 in every window.
	agents := []workload.Agent{
		workload.NewRandom(0, 64, 500, 0.5, 0, 1),
		workload.NewRandom(0, 64, 500, 0.5, 0, 2),
		workload.NewRandom(0, 64, 500, 0.5, 0, 3),
		workload.NewRandom(0, 64, 500, 0.5, 0, 4),
	}
	m := MustNew(Config{Protocol: coherence.New(coherence.KindNoCache), CheckConsistency: true}, agents)
	series, err := NewSampler(m).UtilizationSeries(100, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) < 5 {
		t.Fatalf("only %d windows", len(series))
	}
	for i, u := range series {
		if u < 0.9 {
			t.Fatalf("window %d utilization %.2f under a saturating workload", i, u)
		}
	}

	// A continuing sampler on a fresh machine with light load shows low
	// utilization.
	light := MustNew(Config{}, []workload.Agent{workload.NewTrace(
		workload.Read(1, coherence.ClassShared),
		workload.Compute(500),
		workload.Read(1, coherence.ClassShared),
	)})
	series2, err := NewSampler(light).UtilizationSeries(100, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(series2) == 0 || series2[len(series2)-1] > 0.5 {
		t.Fatalf("light-load utilization series = %v", series2)
	}
}

func TestUtilizationSeriesValidation(t *testing.T) {
	m := MustNew(Config{}, []workload.Agent{workload.Idle()})
	if _, err := NewSampler(m).UtilizationSeries(0, 10); err == nil {
		t.Fatal("zero interval accepted")
	}
}

func TestSamplerOnStartedMachine(t *testing.T) {
	m := MustNew(Config{}, []workload.Agent{workload.NewHotspot(1, 0)})
	m.RunFor(25)
	s := NewSampler(m)
	var at []uint64
	s.Every(10, func(m *Machine) { at = append(at, m.Cycle()) })
	s.Run(20)
	if len(at) != 2 || at[0] != 35 || at[1] != 45 {
		t.Fatalf("sampled at %v, want [35 45]", at)
	}
}
