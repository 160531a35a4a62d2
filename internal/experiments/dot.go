package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/coherence"
)

// TransitionDOT renders a protocol's state diagram in Graphviz DOT format
// — the closest faithful reconstruction of Figures 3-1 and 5-1 themselves
// (feed it to `dot -Tsvg` to get the picture). Processor-request arcs are
// solid, bus-request arcs dashed, matching the figures' visual language;
// arc labels carry the request and the modifier.
func TransitionDOT(p *coherence.Table) string {
	type arc struct {
		from, to, label string
		bus             bool
	}
	var arcs []arc
	for _, a := range figureArcs(p) {
		label := a.On.String()
		_, bus := a.On.Snoop()
		if m := modifier(a.Action, a.Inhibit); m != "-" {
			label += " / " + strings.SplitN(m, " ", 2)[0]
		}
		if a.TakeData {
			label += " / take"
		}
		// Bus self-loops with no effect clutter the diagram; the figures
		// omit them too.
		if bus && a.Next == a.From && !a.Inhibit && !a.TakeData {
			continue
		}
		arcs = append(arcs, arc{from: a.From.Letter(), to: a.Next.Letter(), label: label, bus: bus})
	}

	var b strings.Builder
	fmt.Fprintf(&b, "digraph %s {\n", strings.ToUpper(p.Name()))
	b.WriteString("  rankdir=LR;\n  node [shape=circle];\n")
	names := make([]string, 0, len(p.States()))
	for _, s := range p.States() {
		names = append(names, s.Letter())
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %q;\n", n)
	}
	for _, a := range arcs {
		style := ""
		if a.bus {
			style = ", style=dashed"
		}
		fmt.Fprintf(&b, "  %q -> %q [label=%q%s];\n", a.from, a.to, a.label, style)
	}
	b.WriteString("}\n")
	return b.String()
}
