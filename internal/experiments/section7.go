package experiments

import (
	"fmt"

	"repro/internal/bandwidth"
	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/workload"
)

// Section 7 and Figure 7-1: shared-bus bandwidth. Two artifacts: the
// analytic SBB arithmetic with the paper's worked example, and the
// multiple-shared-bus configuration whose interleaving splits the traffic
// evenly so each bus needs about 1/n of the bandwidth.

func init() {
	register(Experiment{
		ID:      "section7-sbb",
		Title:   "Shared Bus Bandwidth: SBB >= m*x*(1/h)",
		Version: 1, // analytic model: no parameter axes
		Run: func(p Params) (*Table, error) {
			return Section7Bandwidth(p)
		},
	})
	register(Experiment{
		ID:      "fig7-1",
		Title:   "Multiple Shared Bus Cached Based Parallel Processor",
		Axes:    Axes{Seed: true, Scale: true},
		Version: 1,
		Run: func(p Params) (*Table, error) {
			return Figure71(p)
		},
	})
	register(Experiment{
		ID:      "section7-saturation",
		Title:   "Simulated bus utilization vs. processor count",
		Axes:    Axes{Seed: true, Scale: true},
		Version: 1,
		Chart:   &ChartSpec{Labels: []int{0, 1}, Value: 3}, // utilization
		Run: func(p Params) (*Table, error) {
			return SaturationSweep(p)
		},
	})
}

// Section7Bandwidth renders the analytic model: the paper's example plus
// the surrounding design space (the conclusion's "32 to 256 processors").
func Section7Bandwidth(Params) (*report.Table, error) {
	t := &report.Table{
		ID:      "section7-sbb",
		Title:   "Shared Bus Bandwidth requirement (Section 7)",
		Columns: []string{"Processors (m)", "x (MACS)", "Miss ratio (1/h)", "Required SBB (MACS)", "Per bus, 2 buses"},
		Note:    "the 128-processor row is the paper's worked example (12.8 MACS)",
	}
	for _, m := range []int{32, 64, 128, 256} {
		model := bandwidth.Model{Processors: m, AccessRate: 1, MissRatio: 0.10}
		if err := model.Validate(); err != nil {
			return nil, err
		}
		t.AddRowf(m, 1, 0.10, float64(model.RequiredSBB()), float64(model.PerBus(2)))
	}
	return t, nil
}

// Figure71Row is one measured dual-bus data point.
type Figure71Row struct {
	Buses       int
	Txns        []uint64 // per bus
	Utilization float64  // max per-bus utilization
	Cycles      uint64
}

// Figure71Rows runs the same workload on 1, 2 and 4 interleaved buses.
func Figure71Rows(p Params) ([]Figure71Row, error) {
	p = p.withDefaults()
	const pes = 8
	refs := 4000 * p.Scale
	var rows []Figure71Row
	for _, buses := range []int{1, 2, 4} {
		agents := make([]workload.Agent, pes)
		for i := range agents {
			agents[i] = workload.NewRandom(0, 512, refs, 0.3, 0.02, p.Seed+uint64(i))
		}
		m, err := p.Machine(fmt.Sprintf("fig7-1/buses=%d", buses), machine.Config{
			Protocol:         coherence.New(coherence.KindRB),
			CacheLines:       64,
			Buses:            buses,
			CheckConsistency: true,
		}, agents)
		if err != nil {
			return nil, err
		}
		if _, err := m.Run(uint64(refs) * 200); err != nil {
			return nil, err
		}
		if !m.Done() {
			return nil, fmt.Errorf("fig7-1: machine did not drain with %d buses", buses)
		}
		mt := m.Metrics()
		maxUtil := 0.0
		for i := 0; i < buses; i++ {
			st := m.Buses().Bus(i).Stats()
			if u := st.Utilization(); u > maxUtil {
				maxUtil = u
			}
		}
		rows = append(rows, Figure71Row{
			Buses:       buses,
			Txns:        mt.PerBusTransactions,
			Utilization: maxUtil,
			Cycles:      mt.Cycles,
		})
	}
	return rows, nil
}

// Figure71 renders the dual-bus (and quad-bus) traffic split.
func Figure71(p Params) (*report.Table, error) {
	rows, err := Figure71Rows(p)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		ID:      "fig7-1",
		Title:   "Multiple shared buses interleaved on low address bits (Figure 7-1)",
		Columns: []string{"Buses", "Txns per bus", "Max bus utilization", "Cycles to finish"},
		Note:    "per-bus transactions split evenly, so each bus needs ~1/n of the single-bus bandwidth",
	}
	for _, r := range rows {
		t.AddRowf(r.Buses, fmt.Sprint(r.Txns), r.Utilization, r.Cycles)
	}
	return t, nil
}

// SaturationRow is one point of the utilization-vs-processors sweep.
type SaturationRow struct {
	Processors  int
	Protocol    string
	BusPerRef   float64
	Utilization float64
	Cycles      uint64
}

// SaturationRows sweeps the processor count under a fixed per-PE workload
// for the paper's scheme and the no-cache baseline, showing where each
// saturates the single shared bus.
func SaturationRows(p Params) ([]SaturationRow, error) {
	p = p.withDefaults()
	refs := 2500 * p.Scale
	var rows []SaturationRow
	for _, kind := range []coherence.Kind{coherence.KindRB, coherence.KindNoCache} {
		proto := coherence.New(kind)
		for _, pes := range []int{2, 4, 8, 16, 32} {
			layout := workload.DefaultLayout()
			// Paper-scale caches (the largest Table 1-1 size). The shape
			// key carries everything but the seed: one profile capture
			// per (protocol, pes) point.
			agents := make([]workload.Agent, pes)
			for i := range agents {
				agents[i] = workload.MustApp(workload.PDEProfile(), layout, i, p.Seed, refs)
			}
			m, err := p.Machine(fmt.Sprintf("section7/%s/pes=%d", proto.Name(), pes),
				machine.Config{Protocol: proto, CacheLines: 2048}, agents)
			if err != nil {
				return nil, err
			}
			if _, err := m.Run(uint64(refs) * uint64(pes) * 50); err != nil {
				return nil, err
			}
			if !m.Done() {
				return nil, fmt.Errorf("saturation: %s with %d PEs did not drain", proto.Name(), pes)
			}
			mt := m.Metrics()
			rows = append(rows, SaturationRow{
				Processors:  pes,
				Protocol:    proto.Name(),
				BusPerRef:   mt.BusPerRef(),
				Utilization: mt.Bus.Utilization(),
				Cycles:      mt.Cycles,
			})
		}
	}
	return rows, nil
}

// SaturationSweep renders the sweep.
func SaturationSweep(p Params) (*report.Table, error) {
	rows, err := SaturationRows(p)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		ID:      "section7-saturation",
		Title:   "Bus utilization vs. processor count (single shared bus)",
		Columns: []string{"Protocol", "Processors", "Bus txns/ref", "Bus utilization", "Cycles"},
		Note: "with caches (rb) the bus saturates an order of magnitude later than without; " +
			"utilization 1.0 means every added PE only adds waiting",
	}
	for _, r := range rows {
		t.AddRowf(r.Protocol, r.Processors, r.BusPerRef, r.Utilization, r.Cycles)
	}
	return t, nil
}
