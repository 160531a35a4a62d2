package coherence

import (
	"strings"
	"testing"
)

// TestAuditRegisteredProtocolsClean is the merge gate for the tables:
// every registered protocol, and RWB at every k from 2 to 8, must audit
// clean — total, closed, no unreachable state, no sanity violation.
func TestAuditRegisteredProtocolsClean(t *testing.T) {
	tables := []*Table{}
	for _, k := range Kinds() {
		tables = append(tables, New(k))
	}
	for k := uint8(2); k <= 8; k++ {
		tables = append(tables, NewRWB(k))
	}
	for _, tab := range tables {
		for _, f := range tab.Audit() {
			t.Errorf("%s (K=%d): %s", tab.Name(), tab.K, f)
		}
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
//	              read both inhibits and takes data (which it carries none
//	              of).
func badTable() *Table {
	const I, R, L, F = Invalid, Readable, Local, FirstWrite
	return Build(Table{
		Scheme: "bad",
		Arcs: []Arc{
			{From: I, On: CR, Next: R, Action: ActRead},
			{From: I, On: CW, Next: Valid, Action: ActWrite}, // closure: Valid undeclared
			{From: I, On: BR | BW | BI | BRdata, Next: I},

			{From: R, On: CR, Next: L},
			{From: R, On: CW, Next: I, Action: ActWrite, Dirty: DirtySet}, // sanity, twice
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
// seeded defect in badTable surfaces once per cell it spoils, under its
// own rule, and nothing else does. The TS cells badTable leaves out take
// their state's CW arcs, so the CW hole and the CW closure defect show
// there too.
func TestAuditCatchesSeededViolations(t *testing.T) {
	bad := badTable()
	findings := bad.Audit()
	for _, f := range findings {
		t.Logf("  %s", f)
	}
	want := []string{
		"totality: (Readable, BR): 2 entries",
		"totality: (Local, CW): 0 entries",
		"totality: (Local, TS): 0 entries", // the CW hole, inherited
		"closure: (Invalid, CW) targets undeclared state Valid",
		"closure: (Invalid, TS) targets undeclared state Valid",
		"reachability: state FirstWrite is unreachable",
		"sanity: (Readable, CW): sets the dirty bit while entering Invalid",
		"sanity: (Readable, CW): sets the dirty bit on a BW transition",
		"sanity: (Readable, BI): takes data from a BI",
		"sanity: (Local, BR): takes data from a BR",
		"sanity: (Local, BR): both inhibits (supplies the value) and takes data",
	}
	for _, w := range want {
		n := 0
		for _, f := range findings {
			if strings.HasPrefix(f, w) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%d findings start with %q, want 1", n, w)
		}
	}
	if len(findings) != len(want) {
		t.Errorf("%d findings, want %d", len(findings), len(want))
	}
	// A hole is never answered as the zero value "go to Invalid": the
	// interpreter refuses the cell.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("OnProc(Local, CW) on the hole returned an outcome")
			}
		}()
		bad.OnProc(Local, 0, EvWrite)
	}()
}
