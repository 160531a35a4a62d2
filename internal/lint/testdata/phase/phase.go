// Package phase is a lint test fixture: each seeded violation below
// must be caught by the phaseaudit analyzer, and each clean idiom must
// pass. The package lives under testdata so the go tool never builds it,
// but it compiles.
package phase

// Engine is a miniature cycle-loop core with phase-owned state.
type Engine struct {
	//phase:bus
	grants int
	//phase:snoop
	lines [4]int
	//phase:any
	cycle int
	//phase:bus,snoop
	resolved int

	// unowned has no annotation: any write reached from a phase context
	// is itself a finding, so deleting an ownership annotation cannot
	// silently disable checking.
	unowned int

	//phase:wheel
	bogus int // the directive above is malformed: "wheel" is not a phase
}

// Sink is implemented by bus-phase consumers; the directive on the
// interface method is the contract checked at every dynamic call site.
type Sink interface {
	//phase:bus
	Consume(v int)
}

// BusTick is a bus-phase root.
//
//phase:bus
func (e *Engine) BusTick() {
	e.grants++     // clean: bus owns grants
	e.cycle++      // clean: any phase may write cycle
	e.lines[0] = 1 // seeded violation: snoop-owned field written from bus
}

// SnoopTick is a snoop-phase root; helper is unannotated, so it inherits
// the snoop context transparently.
//
//phase:snoop
func (e *Engine) SnoopTick() {
	e.lines[1] = 2 // clean: snoop owns lines
	e.helper()
}

func (e *Engine) helper() {
	e.grants++    // seeded violation: bus-owned field written from snoop
	e.unowned = 3 // seeded violation: unannotated field of a scoped package
}

// CPUTick is a cpu-phase root that calls into a bus-phase function.
//
//phase:cpu
func (e *Engine) CPUTick() {
	e.cycle++   // clean
	e.BusTick() // seeded violation: //phase:bus callee from cpu context
}

// Deliver runs in both the bus and snoop contexts; writing a field owned
// by exactly those phases is clean.
//
//phase:bus,snoop
func (e *Engine) Deliver() {
	e.resolved = 9 // clean
}

// Broadcast is a snoop-phase root making a dynamic call into a bus-phase
// interface method.
//
//phase:snoop
func (e *Engine) Broadcast(s Sink) {
	s.Consume(e.lines[3]) // seeded violation: //phase:bus callee from snoop
}
