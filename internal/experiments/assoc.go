package experiments

import (
	"fmt"

	"repro/internal/cache"
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
		Run:     assocAblation,
	})
}

// assocRow is one (cache size, ways) measurement, typed so the machine
// oracle (cmstar_test.go) compares it exactly.
type assocRow struct {
	CacheSize   int
	Ways        int
	ReadMissPct float64
}

// assocRows sweeps ways in {1, 2, 4} at two of the Table 1-1 cache sizes
// under the Cm*-style emulation, all six geometries from one stream pass
// (see cmStarPass).
func assocRows(p Params) []assocRow {
	p = p.withDefaults()
	var geoms []cache.Config
	for _, size := range []int{512, 2048} {
		for _, ways := range []int{1, 2, 4} {
			geoms = append(geoms, cache.Config{Lines: size, Ways: ways})
		}
	}
	c, set := cmStarPass(p, workload.PDEProfile(), 2, 40000*p.Scale, geoms)
	rows := make([]assocRow, len(geoms))
	for i, g := range geoms {
		rows[i] = assocRow{CacheSize: g.Lines, Ways: g.Ways, ReadMissPct: 100 * float64(c.readMisses[i]) / float64(c.refs)}
		if set != nil {
			p.Profile.Add(fmt.Sprintf("assoc/size=%d/ways=%d", g.Lines, g.Ways), p.Seed, set)
		}
	}
	return rows
}

// assocAblation renders the sweep.
func assocAblation(p Params) (*Table, error) {
	rows := assocRows(p)
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
