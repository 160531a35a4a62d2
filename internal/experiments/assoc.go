package experiments

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/workload"
)

// Associativity ablation: the paper fixes a direct-mapped, one-word-block
// organization (assumption 7) and argues block size and set size matter
// less as caches grow. This experiment quantifies the direct-mapped
// conflict-miss penalty on the Table 1-1 workload by sweeping
// associativity at fixed capacity.

func init() {
	register(Experiment{
		ID:      "ablation-assoc",
		Title:   "Set associativity at fixed capacity (assumption 7)",
		Axes:    Axes{Seed: true, Scale: true},
		Version: 1,
		Run: func(p Params) (*Table, error) {
			return AssocAblation(p)
		},
	})
}

// AssocRow is one (cache size, ways) measurement.
type AssocRow struct {
	CacheSize   int
	Ways        int
	ReadMissPct float64
}

// AssocRows sweeps ways in {1, 2, 4} at the Table 1-1 cache sizes under
// the Cm*-style emulation.
func AssocRows(p Params) ([]AssocRow, error) {
	p = p.withDefaults()
	const pes = 2
	refs := 40000 * p.Scale
	var rows []AssocRow
	for _, size := range []int{512, 2048} {
		for _, ways := range []int{1, 2, 4} {
			layout := workload.DefaultLayout()
			agents := make([]workload.Agent, pes)
			for i := range agents {
				agents[i] = workload.MustApp(workload.PDEProfile(), layout, i, p.Seed, refs)
			}
			m, err := p.Machine(fmt.Sprintf("assoc/size=%d/ways=%d", size, ways), machine.Config{
				Protocol:   coherence.New(coherence.KindCmStar),
				CacheLines: size,
				CacheWays:  ways,
			}, agents)
			if err != nil {
				return nil, err
			}
			if _, err := m.Run(uint64(refs) * 40); err != nil {
				return nil, err
			}
			if !m.Done() {
				return nil, fmt.Errorf("assoc: %d/%d did not drain", size, ways)
			}
			var total, miss uint64
			for pe := 0; pe < pes; pe++ {
				st := m.Cache(pe).Stats()
				total += st.Reads + st.Writes
				miss += st.ByClass[coherence.ClassCode].ReadMisses +
					st.ByClass[coherence.ClassLocal].ReadMisses
			}
			rows = append(rows, AssocRow{
				CacheSize:   size,
				Ways:        ways,
				ReadMissPct: 100 * float64(miss) / float64(total),
			})
		}
	}
	return rows, nil
}

// AssocAblation renders the sweep.
func AssocAblation(p Params) (*report.Table, error) {
	rows, err := AssocRows(p)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		ID:      "ablation-assoc",
		Title:   "Read-miss % vs. set associativity (Cm* emulation, pde workload)",
		Columns: []string{"Cache size", "Ways", "Read miss %"},
		Note:    "associativity shaves the direct-mapped conflict misses; the gap narrows as capacity grows, the paper's assumption-7 argument",
	}
	for _, r := range rows {
		t.AddRowf(r.CacheSize, r.Ways, r.ReadMissPct)
	}
	return t, nil
}
