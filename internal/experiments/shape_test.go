package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/coherence"
)

// These tests pin the paper-shape properties of every quantitative
// experiment: not the absolute numbers (our substrate is a simulator, not
// the authors' testbed) but who wins, by roughly what factor, and in which
// direction the curves bend. EXPERIMENTS.md documents the measured values.

func TestTable11Shape(t *testing.T) {
	rows := Table11Rows(Params{})
	if len(rows) != 8 { // 4 sizes x 2 apps
		t.Fatalf("%d rows", len(rows))
	}
	byApp := map[string][]Table11Row{}
	for _, r := range rows {
		byApp[r.App] = append(byApp[r.App], r)
	}
	for app, rs := range byApp {
		// Read misses fall monotonically with cache size, from the
		// mid-20s to single digits (paper: 26.1 -> 6.1, 25 -> 5.8).
		for i := 1; i < len(rs); i++ {
			if rs[i].ReadMissPct >= rs[i-1].ReadMissPct {
				t.Errorf("%s: read miss did not fall at %d words (%v -> %v)",
					app, rs[i].CacheSize, rs[i-1].ReadMissPct, rs[i].ReadMissPct)
			}
		}
		if first := rs[0].ReadMissPct; first < 18 || first > 35 {
			t.Errorf("%s: read miss at 256 = %.1f, want mid-20s", app, first)
		}
		if last := rs[len(rs)-1].ReadMissPct; last > 10 {
			t.Errorf("%s: read miss at 2048 = %.1f, want single digits", app, last)
		}
		// The factor between the extremes is at least ~3x (paper: ~4.3x).
		if ratio := rs[0].ReadMissPct / rs[len(rs)-1].ReadMissPct; ratio < 3 {
			t.Errorf("%s: miss ratio only improved %.1fx across sizes", app, ratio)
		}
	}
	// The fixed columns: local writes and shared fractions are cache-size
	// independent, matching the paper's constant columns.
	for _, r := range rows {
		wantLW, wantSh := 8.0, 5.0
		if r.App == "qsort" {
			wantLW, wantSh = 6.7, 10.0
		}
		if math.Abs(r.LocalWritePct-wantLW) > 1.0 {
			t.Errorf("%s@%d: local writes %.1f%%, want ~%.1f%%", r.App, r.CacheSize, r.LocalWritePct, wantLW)
		}
		if math.Abs(r.SharedPct-wantSh) > 1.0 {
			t.Errorf("%s@%d: shared %.1f%%, want ~%.1f%%", r.App, r.CacheSize, r.SharedPct, wantSh)
		}
		if math.Abs(r.TotalMissPct-(r.ReadMissPct+r.LocalWritePct+r.SharedPct)) > 0.01 {
			t.Errorf("%s@%d: total %.2f is not the sum of its parts", r.App, r.CacheSize, r.TotalMissPct)
		}
	}
}

func TestTransitionTableSizes(t *testing.T) {
	// Figure 3-1: three states; Figure 5-1: four states.
	if states, _ := CountTransitions(coherence.New(coherence.KindRB)); states != 3 {
		t.Errorf("RB diagram has %d states, want 3", states)
	}
	if states, _ := CountTransitions(coherence.NewRWB(2)); states != 4 {
		t.Errorf("RWB diagram has %d states, want 4", states)
	}
	// The RB table must never mention BI; the RWB table must.
	rb := TransitionTable(coherence.New(coherence.KindRB), "x", "x")
	for _, row := range rb.Rows {
		if row[1] == "BI" || row[3] == "4 (generate BI)" {
			t.Errorf("RB diagram contains BI: %v", row)
		}
	}
	rwb := TransitionTable(coherence.NewRWB(2), "x", "x")
	sawBI := false
	for _, row := range rwb.Rows {
		if row[3] == "4 (generate BI)" {
			sawBI = true
		}
	}
	if !sawBI {
		t.Error("RWB diagram has no BI arc")
	}
}

func TestArrayInitShape(t *testing.T) {
	rows, err := ArrayInitRows(Params{})
	if err != nil {
		t.Fatal(err)
	}
	per := map[string]float64{}
	for _, r := range rows {
		per[r.Protocol] = r.BusWritesPerElement
	}
	// The Section 5 claim, exactly: RB pays 2 bus writes per element, RWB 1.
	if math.Abs(per["rb"]-2) > 0.01 {
		t.Errorf("rb = %.3f bus writes/element, want 2", per["rb"])
	}
	if math.Abs(per["rwb"]-1) > 0.01 {
		t.Errorf("rwb = %.3f bus writes/element, want 1", per["rwb"])
	}
	// And the counterfactual: one dirty bit at eviction removes RB's
	// entire penalty.
	if math.Abs(per["rb-dirty"]-1) > 0.01 {
		t.Errorf("rb-dirty = %.3f bus writes/element, want 1", per["rb-dirty"])
	}
}

func TestLockAblationShape(t *testing.T) {
	rows, err := LockRows(Params{})
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ proto, strat string }
	per := map[key]float64{}
	for _, r := range rows {
		per[key{r.Protocol, r.Strategy}] = r.TxnsPerAcq
	}
	// TTS beats TS by a wide margin on every protocol that can cache the
	// lock (Section 6's point).
	for _, proto := range []string{"rb", "rwb", "goodman"} {
		ts, tts := per[key{proto, "ts"}], per[key{proto, "tts"}]
		if tts*1.5 > ts {
			t.Errorf("%s: tts %.1f txns/acq not well below ts %.1f", proto, tts, ts)
		}
	}
	// RWB's TTS cost is no worse than RB's (Figure 6-3 vs 6-2: fewer
	// invalidation misses).
	if per[key{"rwb", "tts"}] > per[key{"rb", "tts"}]*1.1 {
		t.Errorf("rwb/tts %.2f worse than rb/tts %.2f", per[key{"rwb", "tts"}], per[key{"rb", "tts"}])
	}
}

func TestMixSweepShape(t *testing.T) {
	rows, err := MixRows(Params{})
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		wf    float64
		proto string
	}
	per := map[key]float64{}
	for _, r := range rows {
		per[key{r.WriteFrac, r.Protocol}] = r.BusPerRef
	}
	// At the read-heavy end the paper's schemes beat write-through.
	if per[key{0.05, "rb"}] >= per[key{0.05, "writethrough"}] {
		t.Errorf("rb (%.3f) not below writethrough (%.3f) at 5%% writes",
			per[key{0.05, "rb"}], per[key{0.05, "writethrough"}])
	}
	// Traffic grows with write fraction for the paper's schemes.
	if per[key{0.5, "rb"}] <= per[key{0.05, "rb"}] {
		t.Error("rb traffic did not grow with write fraction")
	}
	// RWB is at least as good as Goodman across shared-data mixes (the
	// broadcast advantage).
	for _, wf := range []float64{0.05, 0.1, 0.2, 0.35, 0.5} {
		if per[key{wf, "rwb"}] > per[key{wf, "goodman"}]*1.15 {
			t.Errorf("wf=%.2f: rwb %.3f much worse than goodman %.3f",
				wf, per[key{wf, "rwb"}], per[key{wf, "goodman"}])
		}
	}
}

func TestThresholdShape(t *testing.T) {
	rows, err := ThresholdRows(Params{})
	if err != nil {
		t.Fatal(err)
	}
	per := map[string]map[uint8]float64{}
	for _, r := range rows {
		if per[r.Workload] == nil {
			per[r.Workload] = map[uint8]float64{}
		}
		per[r.Workload][r.K] = r.BusPerRef
	}
	// A private writer prefers the smallest k (claims Local soonest).
	pw := per["private-writer"]
	if pw[2] > pw[4] {
		t.Errorf("private writer: k=2 (%.3f) should not exceed k=4 (%.3f)", pw[2], pw[4])
	}
}

func TestFaultRecoveryShape(t *testing.T) {
	rows, err := FaultRows(Params{})
	if err != nil {
		t.Fatal(err)
	}
	per := map[string]float64{}
	for _, r := range rows {
		per[r.Protocol] = r.Fraction
		if r.Corrupted == 0 {
			t.Fatalf("%s corrupted nothing", r.Protocol)
		}
	}
	// RWB keeps at least as many live replicas as RB (Section 5: "a
	// higher probability that some cache contains a correct copy").
	if per["rwb"] < per["rb"] {
		t.Errorf("rwb recovery %.2f below rb %.2f", per["rwb"], per["rb"])
	}
	if per["rwb"] == 0 {
		t.Error("rwb recovered nothing")
	}
}

func TestSaturationShape(t *testing.T) {
	rows, err := SaturationRows(Params{})
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		proto string
		pes   int
	}
	util := map[key]float64{}
	bpr := map[key]float64{}
	for _, r := range rows {
		util[key{r.Protocol, r.Processors}] = r.Utilization
		bpr[key{r.Protocol, r.Processors}] = r.BusPerRef
	}
	// Without caches the bus saturates almost immediately.
	if util[key{"nocache", 4}] < 0.95 {
		t.Errorf("nocache at 4 PEs: utilization %.2f, want saturated", util[key{"nocache", 4}])
	}
	// With RB caches, small machines leave headroom...
	if util[key{"rb", 2}] > 0.9 {
		t.Errorf("rb at 2 PEs: utilization %.2f, want headroom", util[key{"rb", 2}])
	}
	// ...and utilization grows monotonically toward saturation.
	if util[key{"rb", 32}] < util[key{"rb", 2}] {
		t.Error("rb utilization did not grow with processors")
	}
	// The cache cuts per-reference bus traffic by at least 3x vs no cache.
	if bpr[key{"rb", 4}]*3 > bpr[key{"nocache", 4}] {
		t.Errorf("rb bus/ref %.3f not well below nocache %.3f",
			bpr[key{"rb", 4}], bpr[key{"nocache", 4}])
	}
}

func TestFigure71Shape(t *testing.T) {
	rows, err := Figure71Rows(Params{})
	if err != nil {
		t.Fatal(err)
	}
	var one, two Figure71Row
	for _, r := range rows {
		switch r.Buses {
		case 1:
			one = r
		case 2:
			two = r
		}
	}
	// Two buses split the traffic roughly evenly...
	total := two.Txns[0] + two.Txns[1]
	frac := float64(two.Txns[0]) / float64(total)
	if frac < 0.40 || frac > 0.60 {
		t.Errorf("dual-bus split = %v (%.2f)", two.Txns, frac)
	}
	// ...so each carries roughly half the single-bus load.
	if float64(two.Txns[0]) > 0.65*float64(one.Txns[0]) {
		t.Errorf("per-bus traffic %d not ~half of single-bus %d", two.Txns[0], one.Txns[0])
	}
}

func TestBarrierShape(t *testing.T) {
	rows, err := BarrierRows(Params{})
	if err != nil {
		t.Fatal(err)
	}
	per := map[string]float64{}
	for _, r := range rows {
		per[r.Protocol] = r.TxnsPerRound
	}
	// Cache-resident spinning: the paper's schemes beat no-cache by a
	// wide margin.
	if per["rb"]*3 > per["nocache"] {
		t.Errorf("rb %.1f txns/round not well below nocache %.1f", per["rb"], per["nocache"])
	}
	// RWB's update-based release is no worse than RB's invalidate.
	if per["rwb"] > per["rb"]*1.1 {
		t.Errorf("rwb %.1f much worse than rb %.1f", per["rwb"], per["rb"])
	}
}

func TestHierShape(t *testing.T) {
	rows, err := HierRows(Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// The cluster caches absorb most of the mostly-read local traffic.
		if r.FilterRatio < 0.5 {
			t.Errorf("%d clusters: filter ratio %.2f, want > 0.5", r.Clusters, r.FilterRatio)
		}
	}
	// Scaling: 4 clusters run 4x the PEs; the global bus must see far
	// less than 4x one cluster's local traffic.
	var one, four HierRow
	for _, r := range rows {
		if r.Clusters == 1 {
			one = r
		}
		if r.Clusters == 4 {
			four = r
		}
	}
	if four.GlobalTxns >= one.LocalTxns*4 {
		t.Errorf("global traffic %d not filtered vs 4x local %d", four.GlobalTxns, one.LocalTxns*4)
	}
}

func TestPrivateAblationShape(t *testing.T) {
	rows, err := PrivateRows(Params{})
	if err != nil {
		t.Fatal(err)
	}
	per := map[string]float64{}
	for _, r := range rows {
		per[r.Protocol] = r.BusPerRef
	}
	// Dynamic classification: RB, RWB and Illinois approach zero
	// steady-state traffic on private data.
	for _, proto := range []string{"rb", "rwb", "illinois"} {
		if per[proto] > 0.05 {
			t.Errorf("%s private traffic %.3f, want near zero", proto, per[proto])
		}
	}
	// Write-through pays for every store: ~0.5 txns/ref here.
	if per["writethrough"] < 0.4 {
		t.Errorf("writethrough %.3f, want ~0.5", per["writethrough"])
	}
	// Goodman's write-once settles silent too (Reserved -> Dirty), far
	// below write-through.
	if per["goodman"] > 0.05 || per["goodman"] >= per["writethrough"] {
		t.Errorf("goodman %.3f not near zero / below writethrough %.3f",
			per["goodman"], per["writethrough"])
	}
}

func TestAssocShape(t *testing.T) {
	rows := AssocRows(Params{})
	per := map[[2]int]float64{}
	for _, r := range rows {
		per[[2]int{r.CacheSize, r.Ways}] = r.ReadMissPct
	}
	// More ways never hurt at fixed capacity (modulo replacement noise).
	for _, size := range []int{512, 2048} {
		if per[[2]int{size, 4}] > per[[2]int{size, 1}]*1.05 {
			t.Errorf("size %d: 4-way (%.1f) worse than direct-mapped (%.1f)",
				size, per[[2]int{size, 4}], per[[2]int{size, 1}])
		}
	}
}

func TestTransitionDOT(t *testing.T) {
	dot := TransitionDOT(coherence.New(coherence.KindRB))
	for _, want := range []string{"digraph RB", `"I" -> "R"`, "CR / 3", "style=dashed", "BR / 2"} {
		if !strings.Contains(dot, want) {
			t.Errorf("RB dot missing %q:\n%s", want, dot)
		}
	}
	rwb := TransitionDOT(coherence.NewRWB(2))
	if !strings.Contains(rwb, "BI") || !strings.Contains(rwb, "take") {
		t.Error("RWB dot missing BI or take arcs")
	}
}

// TestRenderersDrawBothThresholdArms: the renderers used to probe the
// protocol at streak 1, so for k > 2 they never reached the promotion
// F --CW--> L (modifier 4, generate BI): L had no incoming processor arc
// and, from k = 5 up, every BI row vanished. Both arms come from the table.
func TestRenderersDrawBothThresholdArms(t *testing.T) {
	for _, k := range []uint8{3, 7} {
		rows := map[[4]string]int{}
		bi := 0
		for _, row := range TransitionTable(coherence.NewRWB(k), "x", "x").Rows {
			rows[[4]string{row[0], row[1], row[2], row[3]}]++
			if row[1] == "BI" {
				bi++
			}
		}
		for _, want := range [][4]string{
			{"F", "CW", "F", "1 (generate BW)"},
			{"F", "CW", "L", "4 (generate BI)"},
		} {
			if rows[want] != 1 {
				t.Errorf("k=%d: table has %d rows %v, want 1", k, rows[want], want)
			}
		}
		if bi != 4 {
			t.Errorf("k=%d: %d BI rows, want one per state", k, bi)
		}
		dot := TransitionDOT(coherence.NewRWB(k))
		for _, want := range []string{`"F" -> "F" [label="CW / 1"]`, `"F" -> "L" [label="CW / 4"]`, `"R" -> "I" [label="BI", style=dashed]`} {
			if !strings.Contains(dot, want) {
				t.Errorf("k=%d: dot missing %s:\n%s", k, want, dot)
			}
		}
	}
}

func TestRMWStyleShape(t *testing.T) {
	rows, err := RMWStyleRows(Params{})
	if err != nil {
		t.Fatal(err)
	}
	per := map[[2]string]float64{}
	for _, r := range rows {
		per[[2]string{r.Style, r.Strategy}] = r.TxnsPerAcq
	}
	// Each two-phase attempt costs two transactions (checked in
	// internal/machine's TestTwoPhaseCostsTwoTransactionsPerAttempt), yet
	// per *acquisition* the locked bus is cheaper under plain TS: the
	// lock register stalls the other spinners, throttling the hot spot —
	// a hardware backoff.
	if per[[2]string{"two-phase", "ts"}] >= per[[2]string{"fused", "ts"}] {
		t.Errorf("two-phase ts %.1f not below fused ts %.1f (lock-register throttling)",
			per[[2]string{"two-phase", "ts"}], per[[2]string{"fused", "ts"}])
	}
	// TTS rescues the fused style dramatically...
	if per[[2]string{"fused", "tts"}]*1.5 > per[[2]string{"fused", "ts"}] {
		t.Errorf("fused: tts %.1f not well below ts %.1f",
			per[[2]string{"fused", "tts"}], per[[2]string{"fused", "ts"}])
	}
	// ...and under two-phase both strategies land in the same throttled
	// regime (TTS within 2x of TS either way).
	ratio := per[[2]string{"two-phase", "tts"}] / per[[2]string{"two-phase", "ts"}]
	if ratio > 2 || ratio < 0.5 {
		t.Errorf("two-phase tts/ts ratio %.2f outside the throttled band", ratio)
	}
}
