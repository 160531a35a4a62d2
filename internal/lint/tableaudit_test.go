package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/coherence"
)

// update regenerates the golden audit reports:
//
//	go test ./internal/lint -run TestTableAuditGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// TestAuditRegisteredProtocolsClean is the merge gate for satellite 1:
// every protocol the module registers must audit clean — total tables,
// no unreachable states, no sanity violations.
func TestAuditRegisteredProtocolsClean(t *testing.T) {
	audits := AuditAll()
	if want := len(coherence.Kinds()); len(audits) != want {
		t.Fatalf("AuditAll returned %d audits, want %d", len(audits), want)
	}
	for _, a := range audits {
		if a.Probes == 0 {
			t.Errorf("%s: audit exercised zero probes", a.Protocol)
		}
		for _, f := range a.Findings {
			t.Errorf("%s: %s: %s", f.Protocol, f.Rule, f.Detail)
		}
		if len(a.Unreachable) > 0 {
			t.Errorf("%s: unreachable states %v", a.Protocol, a.Unreachable)
		}
	}
}

// TestTableAuditGolden pins the full audit report — transition tables,
// reachability, findings — for every registered protocol. A protocol
// edit that opens a table hole or reroutes a transition fails here with
// a readable diff; intentional changes re-bless with -update.
func TestTableAuditGolden(t *testing.T) {
	for _, a := range AuditAll() {
		t.Run(a.Protocol, func(t *testing.T) {
			got := a.Report()
			path := filepath.Join("testdata", "golden", a.Protocol+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("audit report drifted from %s (re-bless with -update if intended)\ngot:\n%s\nwant:\n%s",
					path, got, want)
			}
		})
	}
}

// badTable seeds one violation of every audit rule:
//
//	totality:     (Local, CW) has no entry — a hole, which must not read
//	              as "go to Invalid" — and (Readable, BR) is written twice;
//	closure:      (Invalid, CW) targets Valid, which is undeclared;
//	reachability: FirstWrite is declared but no transition enters it;
//	sanity:       a write dirties a line entering Invalid over a bus write,
//	              a snooped invalidate claims to take data, and a snooped
//	              read both inhibits and takes data.
func badTable() *coherence.Table {
	const (
		I, R, L, F = coherence.Invalid, coherence.Readable, coherence.Local, coherence.FirstWrite
		CR, CW     = coherence.CR, coherence.CW
		BR, BW, BI = coherence.BR, coherence.BW, coherence.BI
		BRdata     = coherence.BRdata
	)
	return coherence.Build(coherence.Table{
		Scheme: "bad",
		Arcs: []coherence.Arc{
			{From: I, On: CR, Next: R, Action: coherence.ActRead},
			{From: I, On: CW, Next: coherence.Valid, Action: coherence.ActWrite}, // closure: Valid undeclared
			{From: I, On: BR | BW | BI | BRdata, Next: I},

			{From: R, On: CR, Next: L},
			{From: R, On: CW, Next: I, Action: coherence.ActWrite, Dirty: coherence.DirtySet}, // sanity, twice
			{From: R, On: BR | BW | BRdata, Next: R},
			{From: R, On: BR, Next: R},                 // totality: doubled
			{From: R, On: BI, Next: I, TakeData: true}, // sanity: BI carries no data

			{From: L, On: CR | BW | BI | BRdata, Next: L},             // totality: no CW entry
			{From: L, On: BR, Next: L, Inhibit: true, TakeData: true}, // sanity: both

			{From: F, On: CR | CW | BR | BW | BI | BRdata, Next: F},
		},
	})
}

// TestAuditCatchesSeededViolations proves every audit rule fires: each
// seeded defect in badTable must surface under its own rule name.
func TestAuditCatchesSeededViolations(t *testing.T) {
	bad := badTable()
	a := AuditProtocol(bad)
	if a.Clean() {
		t.Fatal("audit of badTable reported clean")
	}
	has := func(rule, substr string) {
		t.Helper()
		for _, f := range a.Findings {
			if f.Rule == rule && strings.Contains(f.Detail, substr) {
				return
			}
		}
		t.Errorf("no %s finding containing %q; findings: %v", rule, substr, a.Findings)
	}
	has("totality", "(Local, CW): 0 entries")
	has("totality", "(Readable, BR): 2 entries")
	has("closure", "targets undeclared state Valid")
	has("reachability", "state FirstWrite is unreachable")
	has("sanity", "sets the dirty bit while entering Invalid")
	has("sanity", "sets the dirty bit on a BW transition")
	has("sanity", "takes data from a BI")
	has("sanity", "both inhibits (supplies the value) and takes data")
	if len(a.Unreachable) != 1 || a.Unreachable[0] != coherence.FirstWrite {
		t.Errorf("Unreachable = %v, want [FirstWrite]", a.Unreachable)
	}
	// A hole is never answered as the zero value "go to Invalid": the
	// interpreter refuses the cell.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("OnProc(Local, CW) on the hole returned an outcome")
			}
		}()
		bad.OnProc(coherence.Local, 0, coherence.EvWrite)
	}()
	// The report for a dirty audit must carry the findings block so the
	// defects stay visible even through the golden path.
	rep := a.Report()
	if !strings.Contains(rep, "findings (") || !strings.Contains(rep, "unreachable: F") {
		t.Errorf("Report() lacks findings/unreachable sections:\n%s", rep)
	}
}
