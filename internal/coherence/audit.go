package coherence

import "fmt"

// Audit checks the table's arcs as data and returns one "rule: detail"
// line per defect, or nothing. The rules are the properties the simulator
// and the Section 4 model checker silently assume:
//
//   - totality: every (declared state, event) cell holds one arc, or a
//     counted arc and its full-streak partner (Cell.Defect);
//   - closure: Invalid, the state the cache gives an absent line, is
//     declared, and every arm's Next, every flushing Owner's FlushTo and
//     QuietReadMiss name a declared state;
//   - reachability: every declared state is reachable from Invalid over
//     those same edges;
//   - sanity: every processor and snoop arm passes CheckProcOutcome or
//     CheckSnoopOutcome.
//
// It probes no interpreter answer: the interpreter answers only with an
// arm's fields, an owner's FlushTo or QuietReadMiss — FuzzProtocolStep
// asserts that the answer is the arm the guard selects, and
// TestTransitionOracle pins every answer at all 256 streaks — so checking
// the arcs checks every answer, at any K.
func (t *Table) Audit() []string {
	var out []string
	finding := func(rule, format string, args ...any) {
		out = append(out, rule+": "+fmt.Sprintf(format, args...))
	}
	declared := map[State]bool{}
	for _, s := range t.states {
		declared[s] = true
	}
	if !declared[Invalid] {
		finding("closure", "initial state Invalid is not declared")
	}
	next := map[State][]State{}
	edge := func(from, to State, what string) {
		if !declared[to] {
			finding("closure", "%s targets undeclared state %v", what, to)
			return
		}
		next[from] = append(next[from], to)
	}

	for _, c := range t.Cells() {
		cell := fmt.Sprintf("(%v, %v)", c.State, c.On)
		if d := c.Defect(); d != "" {
			finding("totality", "%s: %s", cell, d)
			continue // unanswerable: the interpreter refuses it
		}
		for _, a := range c.Arms {
			edge(c.State, a.Next, cell)
			var bad []string
			if e, ok := c.On.Proc(); ok {
				bad = CheckProcOutcome(c.State, e, ProcOutcome{Next: a.Next, Action: a.Action, Dirty: a.Dirty, NoAllocate: a.NoAllocate})
			} else if ev, ok := c.On.Snoop(); ok {
				bad = CheckSnoopOutcome(c.State, ev, SnoopOutcome{Next: a.Next, Inhibit: a.Inhibit, TakeData: a.TakeData, Dirty: a.Dirty})
			}
			for _, v := range bad {
				finding("sanity", "%s: %s", cell, v)
			}
		}
	}
	for _, s := range t.states {
		if o := t.owners[s]; o.Flush != Never {
			edge(s, o.FlushTo, fmt.Sprintf("the flush rule of %v", s))
		}
	}
	// A table that watches the shared line installs QuietReadMiss on a read
	// miss nobody else answered (Illinois installs Exclusive, not Shared).
	if t.QuietReadMiss != Invalid {
		edge(Invalid, t.QuietReadMiss, "QuietReadMiss")
	}

	seen := map[State]bool{Invalid: true}
	for frontier := []State{Invalid}; len(frontier) > 0; frontier = frontier[1:] {
		for _, s := range next[frontier[0]] {
			if !seen[s] {
				seen[s] = true
				frontier = append(frontier, s)
			}
		}
	}
	for _, s := range t.states {
		if !seen[s] {
			finding("reachability", "state %v is unreachable from initial state Invalid", s)
		}
	}
	return out
}

// CheckProcOutcome returns the outcome-sanity rules out violates as a
// response to processor event e against a line in state s. The rules are
// shared between Table.Audit and FuzzProtocolStep:
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
func CheckProcOutcome(s State, e ProcEvent, out ProcOutcome) []string {
	var v []string
	switch out.Action {
	case ActNone, ActRead, ActWrite, ActInv, ActReadThenWrite:
	default:
		v = append(v, fmt.Sprintf("unknown action %v", out.Action))
	}
	if out.Dirty == DirtySet {
		if out.Next == Invalid || out.Next == NotPresent {
			v = append(v, fmt.Sprintf("sets the dirty bit while entering %v", out.Next))
		}
		switch out.Action {
		case ActNone, ActInv:
		default:
			v = append(v, fmt.Sprintf("sets the dirty bit on a %v transition (data reached memory, the line is clean)", out.Action))
		}
	}
	if out.NoAllocate && out.Action == ActNone {
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
func CheckSnoopOutcome(s State, ev SnoopEvent, out SnoopOutcome) []string {
	var v []string
	if out.Inhibit && ev != SnBusRead {
		v = append(v, fmt.Sprintf("inhibits a %v (only bus reads can be interrupted)", ev))
	}
	if out.TakeData && ev != SnBusWrite && ev != SnReadData {
		v = append(v, fmt.Sprintf("takes data from a %v, which carries none", ev))
	}
	if out.Inhibit && out.TakeData {
		v = append(v, "both inhibits (supplies the value) and takes data")
	}
	if out.Dirty == DirtySet {
		v = append(v, "sets the dirty bit from a snooped transaction")
	}
	return v
}
