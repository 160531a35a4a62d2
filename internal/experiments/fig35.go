package experiments

import (
	"slices"

	"repro/internal/coherence"
	"repro/internal/report"
)

// Figures 3-1 and 5-1 are state transition diagrams. A diagram is a
// relation, so the faithful textual reproduction is the full transition
// table: every (state, request) pair with its successor state and the
// modifier action the figure annotates on the arc (1 = generate BW,
// 2 = interrupt BR and supply the data, 3 = generate BR, 4 = generate BI).

func init() {
	register(Experiment{
		ID:      "fig3-1",
		Title:   "State Transition Diagram for each Cache Entry for the RB Scheme",
		Version: 1, // parameter-free: the transition relation has no axes
		Run: func(Params) (*Table, error) {
			return TransitionTable(coherence.New(coherence.KindRB), "fig3-1",
				"State Transition Diagram for each Cache Entry for the RB Scheme"), nil
		},
	})
	register(Experiment{
		ID:      "fig5-1",
		Title:   "State Transition Diagram for each Cache Entry for the RWB Scheme",
		Version: 1,
		Run: func(Params) (*Table, error) {
			return TransitionTable(coherence.New(coherence.KindRWB), "fig5-1",
				"State Transition Diagram for each Cache Entry for the RWB Scheme"), nil
		},
	})
}

// modifier maps a transition to the figure's arc annotation.
func modifier(action coherence.Action, inhibit bool) string {
	switch {
	case inhibit:
		return "2 (interrupt BR, supply data)"
	case action == coherence.ActWrite:
		return "1 (generate BW)"
	case action == coherence.ActRead:
		return "3 (generate BR)"
	case action == coherence.ActInv:
		return "4 (generate BI)"
	case action == coherence.ActReadThenWrite:
		return "3+1 (generate BR then BW)"
	}
	return "-"
}

// figureArcs reads from the table the arcs Figures 3-1 and 5-1 draw, state
// by state: the processor requests, then the bus requests. The figures
// have no Test-and-Set or read-data arcs, show BI only for a scheme that
// generates it, and draw a state as a write enters it: in F the streak is
// already 1, so the counted write-through arm, which is taken while
// streak+1 < K, is in the figure only when K > 2 (at the paper's K = 2 it
// fires only after a foreign bus read reset the streak to 0, a refinement
// the figure does not draw). The full-streak arm always is.
func figureArcs(t *coherence.Table) []coherence.Arc {
	generatesBI := slices.ContainsFunc(t.Arcs, func(a coherence.Arc) bool { return a.Action == coherence.ActInv })
	var arcs []coherence.Arc
	for _, c := range t.Cells() {
		for _, a := range c.Arms {
			notDrawn := a.On == coherence.TS || a.On == coherence.BRdata || a.On == coherence.BI && !generatesBI ||
				a.Streak == coherence.StreakCount && t.K <= 2
			if !notDrawn {
				arcs = append(arcs, a)
			}
		}
	}
	return arcs
}

// TransitionTable renders a protocol's complete transition relation.
func TransitionTable(p *coherence.Table, id, title string) *report.Table {
	t := &report.Table{
		ID:      id,
		Title:   title,
		Columns: []string{"State", "Request", "Next State", "Modifier"},
		Note:    "CW/CR: CPU write/read request; BW/BR/BI: bus write/read/invalidate request (the figures' legend)",
	}
	for _, a := range figureArcs(p) {
		mod := modifier(a.Action, a.Inhibit)
		if a.TakeData {
			if mod == "-" {
				mod = "take broadcast data"
			} else {
				mod += ", take broadcast data"
			}
		}
		t.AddRow(a.From.Letter(), a.On.String(), a.Next.Letter(), mod)
	}
	return t
}
