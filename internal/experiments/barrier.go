package experiments

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/workload"
)

// Barrier ablation: the sense-reversing centralized barrier is the other
// classic hot spot (after the spin lock): every waiter spins on one sense
// word. Under the paper's schemes the spin is cache-resident and the
// barrier release is one bus write (RB invalidates the spinners, who then
// refetch via one broadcast read; RWB updates them in place).

func init() {
	register(Experiment{
		ID:      "ablation-barrier",
		Title:   "Centralized barrier: bus transactions per round (Section 6 hot spots)",
		Axes:    Axes{Scale: true}, // staggered arrivals are fixed, not seeded
		Version: 1,
		Chart:   &ChartSpec{Labels: []int{0}, Value: 3}, // txns/round
		Run:     barrierAblation,
	})
}

// barrierAblation measures bus transactions per completed barrier round
// with staggered arrivals (so real spinning happens).
func barrierAblation(p Params) (*Table, error) {
	p = p.withDefaults()
	const pes = 8
	rounds := 10 * p.Scale
	t := &report.Table{
		ID:      "ablation-barrier",
		Title:   "8 PEs meeting at a sense-reversing barrier (staggered arrivals)",
		Columns: []string{"Protocol", "Rounds", "Bus txns", "Txns/round", "Cycles"},
		Note:    "the sense-word spin is cache-resident under the paper's schemes; without caches every spin iteration is a bus transaction",
	}
	for _, kind := range []coherence.Kind{coherence.KindRB, coherence.KindRWB, coherence.KindGoodman, coherence.KindWriteThrough, coherence.KindNoCache} {
		proto := coherence.New(kind)
		barriers := make([]*workload.Barrier, pes)
		agents := make([]workload.Agent, pes)
		for i := range agents {
			b, err := workload.NewBarrier(workload.BarrierConfig{
				Lock: 0, Counter: 1, Sense: 2, Progress: 16,
				Participants: pes, Rounds: rounds,
				WorkCycles: 1 + 15*i,
				ID:         i,
			})
			if err != nil {
				return nil, err
			}
			barriers[i], agents[i] = b, b
		}
		m, err := p.Machine("barrier/"+proto.Name(), machine.Config{
			Protocol:         proto,
			CacheLines:       64,
			CheckConsistency: true,
		}, agents)
		if err != nil {
			return nil, err
		}
		if _, err := m.Run(uint64(rounds) * 2_000_000); err != nil {
			return nil, err
		}
		if !m.Done() {
			return nil, fmt.Errorf("barrier: %s deadlocked", proto.Name())
		}
		for i, b := range barriers {
			if b.Rounds() != rounds {
				return nil, fmt.Errorf("barrier: %s PE%d finished %d rounds", proto.Name(), i, b.Rounds())
			}
			if err := b.Err(); err != nil {
				return nil, err
			}
		}
		mt := m.Metrics()
		txns := mt.Bus.Transactions()
		t.AddRowf(proto.Name(), rounds, txns, float64(txns)/float64(rounds), mt.Cycles)
	}
	return t, nil
}
