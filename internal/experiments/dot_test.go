package experiments

import (
	"strings"
	"testing"

	"repro/internal/coherence"
)

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
