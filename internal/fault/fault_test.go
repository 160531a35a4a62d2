package fault

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/sweep"
)

// testCampaign is the small campaign the determinism and soundness tests
// share: 2 protocols × all classes × 1 seed × 2 trials = 16 cells.
func testCampaign() CampaignConfig {
	return CampaignConfig{
		Protocols: []string{"rb", "rwb"},
		Seeds:     []uint64{1},
		Trials:    2,
		Trial: TrialConfig{
			PEs:       4,
			Refs:      200,
			AddrRange: 64,
		},
	}
}

func runCampaign(t *testing.T, cfg CampaignConfig, workers int) *sweep.Outcome {
	t.Helper()
	eng := sweep.New(sweep.Options{
		Workers: workers,
		Runner:  NewCellRunner(cfg),
	})
	out, err := eng.Run(context.Background(), cfg.Specs())
	if err != nil {
		t.Fatalf("campaign (workers=%d): %v", workers, err)
	}
	return out
}

// TestCampaignDeterministicAcrossWorkers is the acceptance criterion in the
// flesh: same seed + same spec → byte-identical report, whether the cells
// run on one worker or race across four.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	cfg := testCampaign()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	serial, parallel := runCampaign(t, cfg, 1), runCampaign(t, cfg, 4)
	for _, format := range []string{"plain", "csv"} {
		a, err := RenderReport(cfg, serial, format)
		if err != nil {
			t.Fatalf("RenderReport(-j1, %s): %v", format, err)
		}
		b, err := RenderReport(cfg, parallel, format)
		if err != nil {
			t.Fatalf("RenderReport(-j4, %s): %v", format, err)
		}
		if a != b {
			t.Errorf("%s report differs between -j1 and -j4:\n--- j1 ---\n%s\n--- j4 ---\n%s", format, a, b)
		}
		if a == "" {
			t.Errorf("%s report is empty", format)
		}
	}
}

// TestCampaignNoSilentDivergence asserts the oracle-soundness half of the
// tentpole: on the test campaign, every injected fault of a detectable
// class is masked or detected, never silent.
func TestCampaignNoSilentDivergence(t *testing.T) {
	cfg := testCampaign()
	out := runCampaign(t, cfg, 4)
	bad, err := SilentViolations(out)
	if err != nil {
		t.Fatalf("SilentViolations: %v", err)
	}
	if len(bad) > 0 {
		t.Errorf("silent divergences in detectable classes:\n%s", strings.Join(bad, "\n"))
	}
	matrix, err := Matrix(cfg, out)
	if err != nil {
		t.Fatalf("Matrix: %v", err)
	}
	if len(matrix.Rows) != len(cfg.Protocols) {
		t.Errorf("matrix has %d rows, want %d", len(matrix.Rows), len(cfg.Protocols))
	}
	// Every cell must account for every trial: masked+detected+silent ==
	// trials × seeds.
	total := 0
	for _, jr := range out.Jobs {
		cc, err := parseCell(jr.Table)
		if err != nil {
			t.Fatalf("parseCell(%s): %v", jr.Table.ID, err)
		}
		if got := cc.Masked + cc.Detected + cc.Silent; got != cc.Trials {
			t.Errorf("cell %s: %d outcomes for %d trials", jr.Table.ID, got, cc.Trials)
		}
		total += cc.Trials
	}
	want := len(cfg.Protocols) * len(Classes()) * len(cfg.Seeds) * cfg.Trials
	if total != want {
		t.Errorf("campaign ran %d trials, want %d", total, want)
	}
}

// TestCellIDRoundTrip exercises ParseCellID across the full protocol ×
// class vocabulary, including "rb-dirty" whose name embeds a dash that a
// naive split would hand to the class.
func TestCellIDRoundTrip(t *testing.T) {
	for _, kind := range coherence.Kinds() {
		proto := kind.String()
		for _, class := range Classes() {
			id := CellID(proto, class)
			gotProto, gotClass, err := ParseCellID(id)
			if err != nil {
				t.Fatalf("ParseCellID(%q): %v", id, err)
			}
			if gotProto != proto || gotClass != class {
				t.Errorf("ParseCellID(%q) = (%q, %v), want (%q, %v)", id, gotProto, gotClass, proto, class)
			}
		}
	}
	for _, bad := range []string{"", "rb-bus-drop", "fault-rb", "fault-rb-no-such-class"} {
		if _, _, err := ParseCellID(bad); err == nil {
			t.Errorf("ParseCellID(%q) unexpectedly succeeded", bad)
		}
	}
}

// TestClassRoundTrip pins the kebab-case vocabulary and ParseClass.
func TestClassRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Classes() {
		name := c.String()
		if seen[name] {
			t.Errorf("duplicate class name %q", name)
		}
		seen[name] = true
		if strings.Contains(name, "Class(") {
			t.Errorf("class %d has no name", c)
		}
		got, err := ParseClass(name)
		if err != nil {
			t.Fatalf("ParseClass(%q): %v", name, err)
		}
		if got != c {
			t.Errorf("ParseClass(%q) = %v, want %v", name, got, c)
		}
	}
	if _, err := ParseClass("bus-typo"); err == nil {
		t.Error("ParseClass(bus-typo) unexpectedly succeeded")
	}
	// The outcomes are the report's column headers.
	for o, want := range map[Outcome]string{Masked: "masked", Detected: "detected", Silent: "silent"} {
		if o.String() != want {
			t.Errorf("outcome %d is %q, want %q", o, o.String(), want)
		}
	}
	det := DetectableClasses()
	if len(det) != len(Classes())-1 {
		t.Errorf("DetectableClasses has %d entries, want %d", len(det), len(Classes())-1)
	}
	for _, c := range det {
		if c == MemBitFlip {
			t.Error("MemBitFlip must not be in DetectableClasses")
		}
	}
}

// TestPlanEventDeterministic pins the plan generator: identical inputs
// yield identical events, and different trial seeds genuinely move the
// fault around.
func TestPlanEventDeterministic(t *testing.T) {
	cfg := TrialConfig{}.withDefaults()
	ref := &Reference{Cycles: 10_000, Writes: 500}
	for _, class := range Classes() {
		a := PlanEvent(class, 42, ref, cfg)
		b := PlanEvent(class, 42, ref, cfg)
		if a != b {
			t.Errorf("%v: PlanEvent not deterministic: %+v vs %+v", class, a, b)
		}
		if a.Trigger == 0 || a.Trigger >= ref.Cycles {
			t.Errorf("%v: trigger %d outside (0, %d)", class, a.Trigger, ref.Cycles)
		}
	}
	diff := 0
	for _, class := range Classes() {
		if PlanEvent(class, 1, ref, cfg) != PlanEvent(class, 2, ref, cfg) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("changing the trial seed never changed any planned event")
	}
}

// TestReferenceDeterministic pins the fault-free reference run: same
// workload seed → same image and cycle count, and the trial machinery's
// oracles all pass with no fault installed.
func TestReferenceDeterministic(t *testing.T) {
	cfg := TrialConfig{PEs: 4, Refs: 200, AddrRange: 64}
	a, err := cfg.ReferenceIn(7)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	b, err := cfg.ReferenceIn(7)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	if a.Cycles != b.Cycles || a.Writes != b.Writes {
		t.Errorf("reference not deterministic: cycles %d vs %d, writes %d vs %d", a.Cycles, b.Cycles, a.Writes, b.Writes)
	}
	if addr, differs := imagesDiff(a.Image, b.Image); differs {
		t.Errorf("reference images differ at addr %d", addr)
	}
	if len(a.Image) == 0 {
		t.Error("reference image is empty; workload wrote nothing")
	}
}

// TestRunTrialKnownDetections drives one hand-picked fault per layer and
// asserts the classifier lands on a sane outcome with a named detector —
// the taxonomy is only useful if detections say what caught them.
func TestRunTrialKnownDetections(t *testing.T) {
	cfg := TrialConfig{PEs: 4, Refs: 300, AddrRange: 64}
	cfg = cfg.withDefaults()
	ref, err := cfg.ReferenceIn(3)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	for _, class := range Classes() {
		class := class
		t.Run(class.String(), func(t *testing.T) {
			sawDetected := false
			for trialSeed := uint64(0); trialSeed < 8; trialSeed++ {
				res, err := RunTrialIn(cfg, ref, class, 3, trialSeed)
				if err != nil {
					t.Fatalf("RunTrial(seed %d): %v", trialSeed, err)
				}
				if res.Detail == "" {
					t.Errorf("seed %d: empty detail", trialSeed)
				}
				switch res.Outcome {
				case Detected:
					sawDetected = true
				case Silent:
					if class.Detectable() {
						t.Errorf("seed %d: silent divergence in detectable class: %s", trialSeed, res.Detail)
					}
				}
			}
			// Every class except the bus timing-perturbations reliably
			// produces at least one detection in 8 trials at this size;
			// drop/dup/suppress are legitimately maskable everywhere, so
			// only assert where detection is structurally forced.
			if class == BusArbFreeze && !sawDetected {
				t.Error("8 arb-freeze trials never tripped the watchdog")
			}
		})
	}
}

// TestBusDropIsMasked: a dropped transaction is a lost bus cycle whose
// issuer asks again, so every bus-drop trial of the default campaign
// (4 PEs, 300 references) converges to the reference image. A dropped
// issuer whose line were not re-asserted would wait for unrelated traffic
// to make it news, and wedge until the watchdog when none came.
func TestBusDropIsMasked(t *testing.T) {
	cfg := CampaignConfig{Seeds: []uint64{1, 2, 3, 4}}
	for _, proto := range []string{"rb", "rwb", "goodman", "illinois"} {
		for _, seed := range cfg.Seeds {
			cell, err := cfg.RunCell(proto, BusDrop, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range cell.Trials {
				if res.Outcome != Masked {
					t.Errorf("%s seed %d trial %d: %v: %s", proto, seed, i, res.Outcome, res.Detail)
				}
			}
		}
	}
}

// TestRunTrialFiredAndClassified asserts the bus one-shot injectors
// actually fire (Fired=true with a populated detail), not just plan.
func TestRunTrialFiredAndClassified(t *testing.T) {
	cfg := TrialConfig{PEs: 4, Refs: 300, AddrRange: 64}
	cfg = cfg.withDefaults()
	ref, err := cfg.ReferenceIn(5)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	for _, class := range []Class{BusDrop, BusDup, BusSnoopSuppress, MemLostWrite} {
		res, err := RunTrialIn(cfg, ref, class, 5, 11)
		if err != nil {
			t.Fatalf("RunTrial(%v): %v", class, err)
		}
		if !res.Fired {
			t.Errorf("%v: planned fault never fired: %s", class, res.Detail)
		}
	}
}

// TestCellDetailGolden pins every trial's Detail text (the fault, and
// the watchdog or oracle diagnostic that caught it) for the default
// campaign shape's RB cells at seed 1. The matrix tests read counts
// only, so this is the one check on the diagnostics. The golden was
// recorded by the mimdsim -faults mode this rendering replaces.
func TestCellDetailGolden(t *testing.T) {
	var b strings.Builder
	for i, class := range Classes() {
		cell, err := CampaignConfig{}.RunCell("rb", class, 1)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			fmt.Fprintf(&b, "protocol rb: fault-free reference ran %d cycles, %d memory writes\n\n", cell.Ref.Cycles, cell.Ref.Writes)
		}
		var counts [3]int
		fmt.Fprintf(&b, "%s:\n", class)
		for n, res := range cell.Trials {
			counts[res.Outcome]++
			fmt.Fprintf(&b, "  trial %d: %-8s %s\n", n, res.Outcome, res.Detail)
		}
		fmt.Fprintf(&b, "  => masked=%d detected=%d silent=%d\n", counts[Masked], counts[Detected], counts[Silent])
	}
	want, err := os.ReadFile(filepath.Join("testdata", "faults-all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("cell details differ from testdata/faults-all.golden:\n--- got\n%s--- want\n%s", got, want)
	}
}
