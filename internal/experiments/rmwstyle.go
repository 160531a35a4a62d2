package experiments

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/workload"
)

// RMW-style ablation: the paper describes Test-and-Set twice — Section 6's
// figures treat it as one fused bus read-modify-write transaction, while
// the prose describes the period hardware's two-phase realization ("a
// special bus read operation is generated that locks the appropriate
// shared memory location, ... the modified value is stored back into the
// shared memory cell and the lock removed"). Both are implemented; this
// experiment quantifies the difference and shows TTS rescuing both.

func init() {
	register(Experiment{
		ID:      "ablation-rmwstyle",
		Title:   "Fused vs. two-phase (locked-bus) Test-and-Set (Section 6 prose)",
		Axes:    Axes{Seed: true, Scale: true},
		Version: 1,
		Run:     rmwStyleAblation,
	})
}

// rmwStyleAblation measures RB lock contention under both realizations.
func rmwStyleAblation(p Params) (*Table, error) {
	p = p.withDefaults()
	const pes = 8
	iters := 20 * p.Scale
	t := &report.Table{
		ID:      "ablation-rmwstyle",
		Title:   "8 PEs, RB scheme: Test-and-Set realization vs. bus cost",
		Columns: []string{"RMW style", "Strategy", "Txns/acquisition", "Cycles"},
		Note: "each two-phase attempt costs two transactions, but the memory lock stalls the other " +
			"spinners while an attempt is in flight — a built-in backoff that throttles the hot spot; " +
			"under the fused RMW only TTS prevents the spinning storm",
	}
	for _, twoPhase := range []bool{false, true} {
		for _, strat := range []workload.Strategy{workload.StrategyTS, workload.StrategyTTS} {
			locks := make([]*workload.Spinlock, pes)
			agents := make([]workload.Agent, pes)
			for i := range agents {
				s, err := workload.NewSpinlock(workload.SpinlockConfig{
					Lock: 100, Strategy: strat, Iterations: iters,
					CriticalReads: 3, CriticalWrites: 3,
					GuardedBase: 200, GuardedWords: 8,
					Seed: p.Seed + uint64(i),
				})
				if err != nil {
					return nil, err
				}
				locks[i], agents[i] = s, s
			}
			m, err := p.Machine(fmt.Sprintf("rmwstyle/twoPhase=%v/%s", twoPhase, strat), machine.Config{
				Protocol:         coherence.New(coherence.KindRB),
				CacheLines:       64,
				TwoPhaseRMW:      twoPhase,
				CheckConsistency: true,
				StallCycles:      1_000_000,
			}, agents)
			if err != nil {
				return nil, err
			}
			if _, err := m.Run(uint64(iters) * uint64(pes) * 50000); err != nil {
				return nil, err
			}
			if !m.Done() {
				return nil, fmt.Errorf("rmwstyle: twoPhase=%v %s did not finish", twoPhase, strat)
			}
			total := 0
			for _, s := range locks {
				total += s.Acquisitions()
			}
			style := "fused"
			if twoPhase {
				style = "two-phase"
			}
			mt := m.Metrics()
			t.AddRowf(style, strat.String(), float64(mt.Bus.Transactions())/float64(total), mt.Cycles)
		}
	}
	return t, nil
}
