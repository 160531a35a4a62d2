package coherence

import (
	"fmt"
	"math/bits"
	"slices"
)

// Event is a set of columns of a Table. CR and CW are the processor
// requests, BR…BRdata the bus traffic a non-issuing cache observes, and TS
// is the issuer's own successful Test-and-Set.
type Event uint8

const (
	colTS     = 2 // after the two ProcEvents
	colBR     = 3 // the first of the four SnoopEvents
	numEvents = 7

	CR     Event = 1 << EvRead
	CW     Event = 1 << EvWrite
	TS     Event = 1 << colTS
	BR     Event = 1 << (colBR + SnBusRead)
	BW     Event = 1 << (colBR + SnBusWrite)
	BI     Event = 1 << (colBR + SnBusInv)
	BRdata Event = 1 << (colBR + SnReadData)
)

func (e Event) col() int { return bits.TrailingZeros8(uint8(e)) }

// Proc reports whether e, one event, is a processor request, and which.
func (e Event) Proc() (ProcEvent, bool) { return ProcEvent(e.col()), e == CR || e == CW }

// Snoop reports whether e, one event, is an observed bus event, and which.
func (e Event) Snoop() (SnoopEvent, bool) { return SnoopEvent(e.col() - colBR), e >= BR }

func (e Event) String() string {
	return [numEvents]string{"CR", "CW", "TS", "BR", "BW", "BI", "BRdata"}[e.col()]
}

// Streak is what an arc does to the line's count of uninterrupted writes
// by its own PE (the aux value), the quantity RWB's k is about.
type Streak uint8

const (
	StreakReset Streak = iota // to 0: schemes that do not count; any foreign reference
	StreakStart               // to 1: the first write of a potential streak
	StreakKeep                // unchanged: the PE's own reads do not interrupt
	// StreakCount adds one, and guards the arc: it is taken only while the
	// new count stays below the table's K. The next arc written for the
	// same cell is its StreakFull partner, taken instead once the count
	// reaches K; that one resets the count.
	StreakCount
	StreakFull
)

// When is the condition of an Owner rule.
type When uint8

const (
	Never When = iota
	IfDirty
	Always
)

func (w When) holds(dirty bool) bool { return w == Always || w == IfDirty && dirty }

// Arc is one transition: what a line in state From does on any event in
// On. Action, the bus activity the request needs first, and NoAllocate are
// read for CR, CW and TS; Inhibit (interrupt the read and supply the value,
// modifier 2 in the figures) for BR; TakeData (adopt the broadcast value)
// for BW and BRdata.
type Arc struct {
	From       State
	On         Event
	Next       State
	Action     Action
	Dirty      DirtyEffect
	Streak     Streak
	NoAllocate bool
	Inhibit    bool
	TakeData   bool
}

// Owner holds the rules of a state whose value memory may lack; states
// without one never flush and are dropped silently.
type Owner struct {
	// Flush: when another PE's locked (Test-and-Set) read goes by, must
	// the line first write its value to memory, and which state is it in
	// afterwards (clean)? Unlike BR the locked read is non-cachable: a line
	// that need not flush keeps its state (Figures 6-1/6-2 keep the
	// spinning caches unchanged).
	Flush   When
	FlushTo State
	// Evict: must the line be written back when its frame is reused?
	Evict When
}

// Table is one cache consistency scheme as data. The exported fields are
// the whole description; Build indexes them and the methods — the Protocol
// method set — only look up. A built table is shared by every cache that
// runs the scheme and must not be modified.
type Table struct {
	Scheme string // the short name: "rb", "rwb", ...
	// Arcs holds exactly one arc per (state, event), except that a counted
	// arc is followed by its full-streak partner and that TS may be left
	// out: a Test-and-Set is a write, so it then takes the state's CW arc.
	// Either way it completes in the cache exactly where the arc needs no
	// bus activity — a silent write is legal only on the sole, latest copy,
	// which makes the in-cache Test-and-Set globally atomic — and otherwise
	// its write part is broadcast inside the locked transaction as BW, or
	// as BI when that is what the arc generates. The states are the arcs'
	// From values, in order of first appearance.
	Arcs   []Arc
	Owners map[State]Owner
	K      uint8 // the streak length at which StreakCount gives way to StreakFull
	// QuietReadMiss is the state a read miss installs when the bus's
	// shared line stayed quiet (no other cache held a copy). Invalid, the
	// zero value, means the scheme does not watch the shared line.
	QuietReadMiss State
	// Uncached is the class filter: references of these classes bypass
	// the cache. The paper's schemes are transparent and leave it empty.
	Uncached [numClasses]bool

	states []State
	owners [numStates]Owner
	// cells holds each well-formed cell's arc — for a counted cell, below K
	// then at K. An arc never written has On == 0.
	cells [numStates][numEvents][2]Arc
}

// Cell is one (state, event) position of a table with every arc written
// for it, in source order, each narrowed to that one event; a TS cell left
// out holds its state's CW arcs.
type Cell struct {
	State State
	On    Event
	Arms  []Arc
}

// Defect says what is wrong with the cell — nothing written for it, or
// several arcs that are not a counted one and its partner — or returns "".
// A table is total when no cell has a defect; nothing is ever read as the
// zero value "go to Invalid".
func (c Cell) Defect() string {
	switch n := len(c.Arms); {
	case n == 1 && c.Arms[0].Streak < StreakCount,
		n == 2 && c.Arms[0].Streak == StreakCount && c.Arms[1].Streak == StreakFull:
		return ""
	default:
		return fmt.Sprintf("%d entries, want one arc, or a StreakCount arc then its StreakFull partner", n)
	}
}

// Cells enumerates the table, every state crossed with every event in
// presentation order. It is the one way consumers read the arcs.
func (t *Table) Cells() []Cell {
	var out []Cell
	for _, s := range t.states {
		for col := 0; col < numEvents; col++ {
			c := Cell{State: s, On: 1 << col}
			for _, a := range t.Arcs {
				if a.From == s && a.On&c.On != 0 {
					a.On = c.On
					c.Arms = append(c.Arms, a)
				}
			}
			if c.On == TS && len(c.Arms) == 0 { // left out: the Test-and-Set takes the CW arcs
				for _, a := range out[len(out)-1].Arms {
					a.On = TS
					c.Arms = append(c.Arms, a)
				}
			}
			out = append(out, c)
		}
	}
	return out
}

// Build indexes t for the interpreter. It accepts a defective table — the
// audit reports the defects from Cells — but leaves a defective cell
// unanswerable: stepping onto it panics.
func Build(t Table) *Table {
	for _, a := range t.Arcs {
		if !slices.Contains(t.states, a.From) {
			t.states = append(t.states, a.From)
		}
	}
	for s, o := range t.Owners {
		t.owners[s] = o
	}
	for _, c := range t.Cells() {
		if c.Defect() == "" {
			copy(t.cells[c.State][c.On.col()][:], c.Arms)
		}
	}
	return &t
}

// arc returns the arc a line in (s, aux) takes on the event in column col,
// and the streak afterwards.
func (t *Table) arc(s State, aux uint8, col uint8) (*Arc, uint8) {
	c := &t.cells[s][col]
	a := &c[0]
	switch a.Streak {
	case StreakStart:
		return a, 1
	case StreakKeep:
		return a, aux
	case StreakCount:
		if aux+1 >= t.K {
			return &c[1], 0
		}
		return a, aux + 1
	default: // StreakReset; StreakFull is never a first arm
		if a.On == 0 {
			panic(fmt.Sprintf("%s: no entry for (%v, %v)", t.Scheme, s, Event(1)<<col))
		}
		return a, 0
	}
}

func (t *Table) Name() string { return t.Scheme }

// States returns the shared slice: do not modify it.
func (t *Table) States() []State { return t.states }

func (t *Table) OnProc(s State, aux uint8, e ProcEvent) ProcOutcome {
	a, streak := t.arc(s, aux, uint8(e))
	return ProcOutcome{Next: a.Next, NextAux: streak, Action: a.Action, Dirty: a.Dirty, NoAllocate: a.NoAllocate}
}

// OnSnoop ignores dirty: no scheme's reaction depends on it, only the
// Flush rule does.
func (t *Table) OnSnoop(s State, aux uint8, dirty bool, ev SnoopEvent) SnoopOutcome {
	a, streak := t.arc(s, aux, colBR+uint8(ev))
	return SnoopOutcome{Next: a.Next, NextAux: streak, Inhibit: a.Inhibit, TakeData: a.TakeData, Dirty: a.Dirty}
}

func (t *Table) RMWSuccess(s State, aux uint8) (State, uint8, Action) {
	a, streak := t.arc(s, aux, colTS)
	if a.Action == ActInv {
		return a.Next, streak, ActInv
	}
	return a.Next, streak, ActWrite
}

func (t *Table) LocalRMW(s State) bool {
	a := &t.cells[s][colTS][0]
	return a.On != 0 && a.Action == ActNone
}

func (t *Table) RMWFlush(s State, dirty bool) (bool, State, DirtyEffect) {
	if o := &t.owners[s]; o.Flush.holds(dirty) {
		return true, o.FlushTo, DirtyClear
	}
	return false, s, DirtyKeep
}

func (t *Table) WritebackOnEvict(s State, dirty bool) bool { return t.owners[s].Evict.holds(dirty) }

// Cachable ignores e: no scheme's filter looks at the event.
func (t *Table) Cachable(c Class, e ProcEvent) bool { return !t.Uncached[c] }

func (t *Table) ReadMissTarget(sharedLine bool) State {
	if !sharedLine && t.QuietReadMiss != Invalid {
		return t.QuietReadMiss
	}
	return t.cells[Invalid][EvRead][0].Next
}
