package experiments

import (
	"fmt"

	"repro/internal/hier"
	"repro/internal/report"
	"repro/internal/workload"
)

// Hierarchy extension (Section 8, future work): clusters of PEs behind
// inclusive cluster caches, joined by one global bus. The experiment
// measures how much of the local traffic the cluster level filters away —
// the property that would let the architecture grow past a single bus's
// processor budget.

func init() {
	register(Experiment{
		ID:      "extension-hier",
		Title:   "Hierarchical clusters: global-bus traffic filtering (Section 8)",
		Axes:    Axes{Seed: true, Scale: true},
		Version: 1,
		Chart:   &ChartSpec{Labels: []int{1}, Value: 3}, // global txns
		Run:     hierSweep,
	})
}

// hierSweep sweeps cluster counts at a fixed per-PE workload: mostly-read
// shared traffic with small L1s, so the cluster caches do real work.
func hierSweep(p Params) (*Table, error) {
	p = p.withDefaults()
	refs := 1500 * p.Scale
	t := &report.Table{
		ID:      "extension-hier",
		Title:   "Two-level hierarchy: cluster caches filtering the global bus",
		Columns: []string{"Clusters", "PEs", "Local txns", "Global txns", "Filter ratio", "Global util", "Cycles"},
		Note: "write-through L1s under inclusive cluster caches (the Section 8 hierarchical " +
			"direction); the filter ratio is the fraction of local transactions the cluster level absorbed",
	}
	for _, clusters := range []int{1, 2, 4} {
		const pes = 4
		agents := make([][]workload.Agent, clusters)
		for c := range agents {
			agents[c] = make([]workload.Agent, pes)
			for i := range agents[c] {
				agents[c][i] = workload.NewRandom(0, 256, refs, 0.08, 0.01, p.Seed+uint64(c*10+i))
			}
		}
		m, err := hier.New(hier.Config{
			Clusters: clusters, PEsPerCluster: pes,
			L1Lines: 16, ClusterLines: 512,
			CheckConsistency: true,
		}, agents)
		if err != nil {
			return nil, err
		}
		if _, err := m.Run(uint64(refs) * uint64(clusters*pes) * 200); err != nil {
			return nil, err
		}
		if !m.Done() {
			return nil, fmt.Errorf("hier: %d clusters did not drain", clusters)
		}
		mt := m.Metrics()
		t.AddRowf(clusters, clusters*pes, mt.LocalTransactions(), mt.Global.Transactions(),
			mt.FilterRatio(), mt.Global.Utilization(), mt.Cycles)
	}
	return t, nil
}
