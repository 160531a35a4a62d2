package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/mrc"
	"repro/internal/workload"
)

// The Cm* experiments (table1-1, ablation-assoc) come from one stream
// pass with no machine (cmStarPass). The oracle is the machine loop they
// ran before: every geometry on its own full bus/snoop machine, one per
// trial, built through Params.Machine so Params.Profile attaches to it.

// table11Machine is Table11Rows on the machine.
func table11Machine(t *testing.T, p Params) []Table11Row {
	p = p.withDefaults()
	const pes = 4
	refsPerPE := 60000 * p.Scale
	var rows []Table11Row
	for _, size := range Table11Sizes {
		for _, prof := range []workload.AppProfile{workload.PDEProfile(), workload.QuicksortProfile()} {
			m := cmStarMachine(t, p, fmt.Sprintf("table11/size=%d/%s", size, prof.Name), prof, pes, refsPerPE,
				machine.Config{Protocol: coherence.New(coherence.KindCmStar), CacheLines: size})
			var total, readMiss, localWrite, shared uint64
			for pe := 0; pe < pes; pe++ {
				st := m.Cache(pe).Stats()
				total += st.Reads + st.Writes
				local, sh := st.ByClass[coherence.ClassLocal], st.ByClass[coherence.ClassShared]
				readMiss += st.ByClass[coherence.ClassCode].ReadMisses + local.ReadMisses
				localWrite += local.WriteMisses
				shared += sh.Reads + sh.Writes
			}
			rows = append(rows, table11Row(size, prof.Name, total, readMiss, localWrite, shared))
		}
	}
	return rows
}

// assocMachine is AssocRows on the machine.
func assocMachine(t *testing.T, p Params) []AssocRow {
	p = p.withDefaults()
	const pes = 2
	refs := 40000 * p.Scale
	var rows []AssocRow
	for _, size := range []int{512, 2048} {
		for _, ways := range []int{1, 2, 4} {
			m := cmStarMachine(t, p, fmt.Sprintf("assoc/size=%d/ways=%d", size, ways), workload.PDEProfile(), pes, refs,
				machine.Config{Protocol: coherence.New(coherence.KindCmStar), CacheLines: size, CacheWays: ways})
			var total, miss uint64
			for pe := 0; pe < pes; pe++ {
				st := m.Cache(pe).Stats()
				total += st.Reads + st.Writes
				miss += st.ByClass[coherence.ClassCode].ReadMisses + st.ByClass[coherence.ClassLocal].ReadMisses
			}
			rows = append(rows, AssocRow{CacheSize: size, Ways: ways, ReadMissPct: 100 * float64(miss) / float64(total)})
		}
	}
	return rows
}

// cmStarMachine runs pes App PEs of prof to completion on a machine.
func cmStarMachine(t *testing.T, p Params, shape string, prof workload.AppProfile, pes, refsPerPE int, cfg machine.Config) *machine.Machine {
	t.Helper()
	agents := make([]workload.Agent, pes)
	for i := range agents {
		agents[i] = workload.MustApp(prof, workload.DefaultLayout(), i, p.Seed, refsPerPE)
	}
	m, err := p.Machine(shape, cfg, agents)
	if err != nil {
		t.Fatal(err)
	}
	maxCycles := uint64(refsPerPE) * 40
	if _, err := m.Run(maxCycles); err != nil {
		t.Fatal(err)
	}
	if !m.Done() {
		t.Fatalf("%s: machine did not drain in %d cycles", shape, maxCycles)
	}
	return m
}

// checkCmStarOracle asserts the stream pass's rows equal the machine's.
func checkCmStarOracle(t *testing.T, p Params) {
	t.Helper()
	if t11, want := Table11Rows(p), table11Machine(t, p); !reflect.DeepEqual(t11, want) {
		t.Errorf("seed %d scale %d: table1-1 rows\n%+v\nwant the machine's\n%+v", p.Seed, p.Scale, t11, want)
	}
	if assoc, want := AssocRows(p), assocMachine(t, p); !reflect.DeepEqual(assoc, want) {
		t.Errorf("seed %d scale %d: ablation-assoc rows\n%+v\nwant the machine's\n%+v", p.Seed, p.Scale, assoc, want)
	}
}

func TestCmStarOracle(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		checkCmStarOracle(t, Params{Seed: seed, Scale: 1})
	}
}

func TestCmStarOracleScale10(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("the scale-10 machines take ~12 s, minutes under the race detector")
	}
	for seed := uint64(1); seed <= 2; seed++ {
		checkCmStarOracle(t, Params{Seed: seed, Scale: 10})
	}
}

// TestCmStarOracleProfile: the stream pass records the machine's capture
// shapes in the machine's order, and every per-PE curve is the same
// bytes. Only the machine-wide union's points may differ: the stream
// pass interleaves the PEs in lockstep, the machine in bus order. Its
// reference, cold and footprint counts do not depend on the order.
func TestCmStarOracleProfile(t *testing.T) {
	var stream, oracle mrc.Collector
	p := Params{Seed: 1, Profile: &stream}
	Table11Rows(p)
	AssocRows(p)
	p.Profile = &oracle
	table11Machine(t, p)
	assocMachine(t, p)
	got, want := stream.Captures(), oracle.Captures()
	if len(got) != len(want) || len(got) != 14 {
		t.Fatalf("%d captures, the machine made %d (want 8 + 6)", len(got), len(want))
	}
	sizes := mrc.DefaultSizes()
	for i := range got {
		if got[i].Shape != want[i].Shape || got[i].Seed != want[i].Seed {
			t.Fatalf("capture %d is %s/%d, the machine's %s/%d", i, got[i].Shape, got[i].Seed, want[i].Shape, want[i].Seed)
		}
		g, w := got[i].Set.Docs(sizes), want[i].Set.Docs(sizes)
		if len(g) != len(w) {
			t.Fatalf("%s: %d curves, want %d", got[i].Shape, len(g), len(w))
		}
		if u, v := g[0], w[0]; u.Scope != "machine" || u.Refs != v.Refs || u.Colds != v.Colds || u.Footprint != v.Footprint {
			t.Errorf("%s union: %s refs %d colds %d footprint %d, the machine's %s %d %d %d",
				got[i].Shape, u.Scope, u.Refs, u.Colds, u.Footprint, v.Scope, v.Refs, v.Colds, v.Footprint)
		}
		for j := 1; j < len(g); j++ {
			gb, _ := json.Marshal(g[j])
			wb, _ := json.Marshal(w[j])
			if string(gb) != string(wb) {
				t.Errorf("%s %s:\n%s\nwant the machine's\n%s", got[i].Shape, g[j].Scope, gb, wb)
			}
		}
	}
}

// TestTable11PaperError bounds the mean absolute error of the rounded
// read-miss cells against the paper's, at every seed. The 28.8 at
// 512/qsort breaks the paper's own monotone fall and stays out. The
// bound is a ratchet: a recalibration may lower it, never raise it.
func TestTable11PaperError(t *testing.T) {
	paper := map[string]float64{
		"256/pde": 26.1, "512/pde": 21.7, "1024/pde": 11.3, "2048/pde": 6.1,
		"256/qsort": 25.0, "1024/qsort": 10.8, "2048/qsort": 5.8,
	}
	for seed := uint64(1); seed <= 4; seed++ {
		tb, err := Table11(Params{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		sum, cells := 0.0, 0
		for _, row := range tb.Rows {
			want, ok := paper[row[0]+"/"+row[1]]
			if !ok {
				continue
			}
			got, err := strconv.ParseFloat(row[2], 64)
			if err != nil {
				t.Fatal(err)
			}
			sum += math.Abs(got - want)
			cells++
		}
		if cells != len(paper) {
			t.Fatalf("seed %d: %d of the paper's %d cells", seed, cells, len(paper))
		}
		if mae := sum / float64(cells); mae > 2.0 {
			t.Errorf("seed %d: read-miss error %.2f pp against the paper, bound 2.0", seed, mae)
		} else {
			t.Logf("seed %d: read-miss error %.2f pp", seed, mae)
		}
	}
}
