package lint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/coherence"
)

// The table audit is the third analyzer family: it loads every table
// registered in coherence.Kinds() and verifies the properties the
// simulator and the Section 4 model checker silently assume:
//
//   - totality, read off the table itself: every (declared state, event)
//     cell holds exactly one arc, or a counted arc and its full-streak
//     partner (coherence.Cell.Defect);
//   - closure and reachability: outcomes only target declared states, and
//     every declared state is reachable from Invalid, the state the cache
//     gives an absent line;
//   - outcome sanity: the structural rules in CheckProcOutcome and
//     CheckSnoopOutcome (shared with FuzzProtocolStep in
//     internal/coherence).
//
// Closure and sanity are checked on what the interpreter answers — the
// thing the cache consumes — for every well-formed cell, both dirty values
// and the streaks in auditAuxProbes, which cover zero, the RWB threshold
// region, and saturation; so are the rules that are not arcs (flush,
// eviction, LocalRMW, the class filter, the read-miss target).
var auditAuxProbes = []uint8{0, 1, 2, 255}

// AuditFinding is one violated table property.
type AuditFinding struct {
	Protocol string
	Rule     string // "totality", "closure", "reachability", "sanity"
	Detail   string
}

// Audit is the result of auditing one protocol's transition table.
type Audit struct {
	Protocol    string
	States      []coherence.State // declared, in presentation order
	Unreachable []coherence.State
	Findings    []AuditFinding
	Probes      int // (state, event, aux, dirty) combinations exercised

	table *coherence.Table // audited table, for Report
}

// Clean reports whether the audit found nothing.
func (a Audit) Clean() bool { return len(a.Findings) == 0 }

// AuditAll audits every registered protocol, in Kinds order.
func AuditAll() []Audit {
	kinds := coherence.Kinds()
	out := make([]Audit, 0, len(kinds))
	for _, k := range kinds {
		out = append(out, AuditProtocol(coherence.New(k)))
	}
	return out
}

// AuditProtocol audits one built table.
func AuditProtocol(t *coherence.Table) Audit {
	a := Audit{Protocol: t.Name(), States: t.States(), table: t}
	declared := map[coherence.State]bool{}
	for _, s := range a.States {
		declared[s] = true
	}
	if !declared[coherence.Invalid] {
		a.Findings = append(a.Findings, AuditFinding{a.Protocol, "closure", "initial state Invalid is not declared"})
	}

	// reach accumulates the successor relation for the reachability pass.
	reach := map[coherence.State][]coherence.State{}
	finding := func(rule, format string, args ...any) {
		a.Findings = append(a.Findings, AuditFinding{a.Protocol, rule, fmt.Sprintf(format, args...)})
	}
	// probed records one interpreter answer: from --desc--> next.
	probed := func(from, next coherence.State, desc string) {
		a.Probes++
		if !declared[next] {
			finding("closure", "%s targets undeclared state %v", desc, next)
		} else {
			reach[from] = append(reach[from], next)
		}
	}

	for _, c := range t.Cells() {
		s := c.State
		if d := c.Defect(); d != "" {
			finding("totality", "(%v, %v): %s", s, c.On, d)
			continue
		}
		for _, aux := range auditAuxProbes {
			if e, ok := c.On.Proc(); ok {
				out := t.OnProc(s, aux, e)
				desc := fmt.Sprintf("OnProc(%v, aux=%d, %v)", s, aux, e)
				probed(s, out.Next, desc)
				for _, v := range CheckProcOutcome(s, e, out) {
					finding("sanity", "%s: %s", desc, v)
				}
			} else if ev, ok := c.On.Snoop(); ok {
				for _, dirty := range []bool{false, true} {
					out := t.OnSnoop(s, aux, dirty, ev)
					desc := fmt.Sprintf("OnSnoop(%v, aux=%d, dirty=%v, %v)", s, aux, dirty, ev)
					probed(s, out.Next, desc)
					for _, v := range CheckSnoopOutcome(s, ev, out) {
						finding("sanity", "%s: %s", desc, v)
					}
				}
			} else {
				next, _, _ := t.RMWSuccess(s, aux)
				probed(s, next, fmt.Sprintf("RMWSuccess(%v, aux=%d)", s, aux))
			}
		}
	}
	// The rules that are not arcs. WritebackOnEvict, LocalRMW and the class
	// filter have no wrong answer the audit could name; they are exercised
	// so that an unanswerable one (an index out of range) stops the audit.
	for _, s := range a.States {
		for _, dirty := range []bool{false, true} {
			_, next, _ := t.RMWFlush(s, dirty)
			probed(s, next, fmt.Sprintf("RMWFlush(%v, dirty=%v)", s, dirty))
			t.WritebackOnEvict(s, dirty)
			a.Probes++
		}
		t.LocalRMW(s)
		a.Probes++
	}
	for _, c := range []coherence.Class{coherence.ClassUnknown, coherence.ClassCode, coherence.ClassLocal, coherence.ClassShared} {
		for _, e := range []coherence.ProcEvent{coherence.EvRead, coherence.EvWrite} {
			t.Cachable(c, e)
			a.Probes++
		}
	}
	// A table that watches the shared line adds read-miss edges from the
	// bus's shared-line decision (Illinois installs Exclusive or Shared).
	if t.QuietReadMiss != coherence.Invalid {
		for _, shared := range []bool{false, true} {
			probed(coherence.Invalid, t.ReadMissTarget(shared), fmt.Sprintf("ReadMissTarget(shared=%v)", shared))
		}
	}

	// Reachability: BFS over the accumulated successor relation.
	seen := map[coherence.State]bool{coherence.Invalid: true}
	frontier := []coherence.State{coherence.Invalid}
	for len(frontier) > 0 {
		s := frontier[0]
		frontier = frontier[1:]
		for _, t := range reach[s] {
			if !seen[t] {
				seen[t] = true
				frontier = append(frontier, t)
			}
		}
	}
	for _, s := range a.States {
		if !seen[s] {
			a.Unreachable = append(a.Unreachable, s)
			finding("reachability", "state %v is unreachable from initial state Invalid", s)
		}
	}
	return a
}

// CheckProcOutcome returns the outcome-sanity rules out violates as a
// response to processor event e against a line in state s. The rules are
// shared between the table audit and FuzzProtocolStep:
//
//   - the dirty bit is never set on a line entering Invalid or NotPresent
//     ("no dirty-bit set on Invalid");
//   - a transition that writes through or fetches (BW, BR, BR+BW) leaves
//     the line clean — only bus-silent writes (-) and the data-less
//     invalidate broadcast (BI) may dirty it, so no transition both
//     broadcasts data and marks memory stale;
//   - a no-allocate outcome must name a bus action (bypassing the cache
//     with no bus activity would lose the access entirely);
//   - the action is one of the five declared Actions.
func CheckProcOutcome(s coherence.State, e coherence.ProcEvent, out coherence.ProcOutcome) []string {
	var v []string
	switch out.Action {
	case coherence.ActNone, coherence.ActRead, coherence.ActWrite, coherence.ActInv, coherence.ActReadThenWrite:
	default:
		v = append(v, fmt.Sprintf("unknown action %v", out.Action))
	}
	if out.Dirty == coherence.DirtySet {
		if out.Next == coherence.Invalid || out.Next == coherence.NotPresent {
			v = append(v, fmt.Sprintf("sets the dirty bit while entering %v", out.Next))
		}
		switch out.Action {
		case coherence.ActNone, coherence.ActInv:
		default:
			v = append(v, fmt.Sprintf("sets the dirty bit on a %v transition (data reached memory, the line is clean)", out.Action))
		}
	}
	if out.NoAllocate && out.Action == coherence.ActNone {
		v = append(v, "no-allocate outcome with no bus action loses the access")
	}
	return v
}

// CheckSnoopOutcome returns the outcome-sanity rules out violates as a
// reaction to observed bus event ev against a line in state s:
//
//   - Inhibit only answers SnBusRead (there is nothing to interrupt on a
//     write, an invalidate, or broadcast read data);
//   - TakeData only on events that carry data (SnBusWrite, SnReadData);
//   - never Inhibit and TakeData together (a cache cannot both supply
//     the value and adopt it);
//   - a snooped transaction never sets the dirty bit — dirtiness records
//     a local write that bypassed the bus, which an observer by
//     definition did not perform.
func CheckSnoopOutcome(s coherence.State, ev coherence.SnoopEvent, out coherence.SnoopOutcome) []string {
	var v []string
	if out.Inhibit && ev != coherence.SnBusRead {
		v = append(v, fmt.Sprintf("inhibits a %v (only bus reads can be interrupted)", ev))
	}
	if out.TakeData && ev != coherence.SnBusWrite && ev != coherence.SnReadData {
		v = append(v, fmt.Sprintf("takes data from a %v, which carries none", ev))
	}
	if out.Inhibit && out.TakeData {
		v = append(v, "both inhibits (supplies the value) and takes data")
	}
	if out.Dirty == coherence.DirtySet {
		v = append(v, "sets the dirty bit from a snooped transaction")
	}
	return v
}

// Report renders the audit as a stable, diffable text block — the golden
// representation asserted by TestTableAuditGolden, so a protocol change
// that opens a table hole fails CI with a readable diff.
func (a Audit) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "protocol %s\n", a.Protocol)
	letters := make([]string, len(a.States))
	for i, s := range a.States {
		letters[i] = s.Letter()
	}
	fmt.Fprintf(&b, "states: %s (initial I)\n", strings.Join(letters, " "))
	// Every arm of every cell, read from the table: processor arcs first,
	// then the observed-bus reactions.
	var snoop strings.Builder
	for _, c := range a.table.Cells() {
		for _, e := range c.Arms {
			extra := ""
			if _, ok := c.On.Proc(); ok {
				if e.NoAllocate {
					extra = " noalloc"
				}
				if e.Dirty == coherence.DirtySet {
					extra += " dirty"
				}
				if e.Streak == coherence.StreakFull {
					extra += fmt.Sprintf(" (streak reaches K=%d)", a.table.K)
				}
				fmt.Fprintf(&b, "  %-2s --%s--> %-2s [%s]%s\n", c.State.Letter(), c.On, e.Next.Letter(), e.Action, extra)
			} else if _, ok := c.On.Snoop(); ok {
				if e.Inhibit {
					extra = " inhibit"
				}
				if e.TakeData {
					extra += " take"
				}
				line := fmt.Sprintf("  %-2s ..%s..> %-2s%s", c.State.Letter(), c.On, e.Next.Letter(), extra)
				snoop.WriteString(strings.TrimRight(line, " ") + "\n")
			}
		}
	}
	b.WriteString(snoop.String())
	if len(a.Unreachable) > 0 {
		letters := make([]string, len(a.Unreachable))
		for i, s := range a.Unreachable {
			letters[i] = s.Letter()
		}
		fmt.Fprintf(&b, "unreachable: %s\n", strings.Join(letters, " "))
	}
	if a.Clean() {
		fmt.Fprintf(&b, "findings: none (%d probes)\n", a.Probes)
	} else {
		rules := make([]string, 0, len(a.Findings))
		for _, f := range a.Findings {
			rules = append(rules, f.Rule+": "+f.Detail)
		}
		sort.Strings(rules)
		fmt.Fprintf(&b, "findings (%d):\n", len(rules))
		for _, r := range rules {
			fmt.Fprintf(&b, "  %s\n", r)
		}
	}
	return b.String()
}
