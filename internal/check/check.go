// Package check mechanizes the Section 4 consistency proof: it builds the
// product machine of N cache automata plus memory for a single address and
// exhaustively explores every interleaving of processor reads, writes,
// Test-and-Sets, and evictions, verifying at each step that
//
//   - every in-cache read (and locked read) observes the latest written
//     value (the theorem: "Each PE always reads the latest value written");
//   - the latest value always survives somewhere (no lost updates);
//   - at most one cache ever claims read-interrupt ownership of a bus read;
//   - the protocol-specific configuration lemma holds (for RB: shared or
//     local configurations only; for RWB: plus the single-F intermediate).
//
// Values are abstracted to a has-latest bit per copy: a write mints a new
// "latest" token; a copy holds it only if it received that write's data
// (directly, by write-through, by broadcast take, or by flush). The
// abstraction is exact for these properties because the protocols never
// inspect data values (the lock-zero test of RMW is explored as a
// nondeterministic branch).
package check

import (
	"fmt"
	"strings"

	"repro/internal/coherence"
)

// LineView is one cache's view of the address in a Snapshot.
type LineView struct {
	Present   bool
	State     coherence.State
	Aux       uint8
	Dirty     bool
	HasLatest bool
}

// Snapshot is a product-machine state offered to invariant predicates.
type Snapshot struct {
	Lines     []LineView
	MemLatest bool
}

// String renders the configuration like the paper's figures: one letter
// per cache plus the memory flag.
func (s Snapshot) String() string {
	var b strings.Builder
	for i, ln := range s.Lines {
		if i > 0 {
			b.WriteByte(' ')
		}
		if !ln.Present {
			b.WriteString("NP")
			continue
		}
		b.WriteString(ln.State.Letter())
		if ln.Dirty {
			b.WriteByte('*')
		}
		if ln.HasLatest {
			b.WriteByte('+')
		}
	}
	if s.MemLatest {
		b.WriteString(" | mem+")
	} else {
		b.WriteString(" | mem-")
	}
	return b.String()
}

// Options configures an exploration.
type Options struct {
	// Caches is N, the number of processing elements. 2..5 is practical.
	Caches int
	// Invariant, when non-nil, is checked at every reachable state.
	// RBLemma and RWBLemma encode the paper's configuration lemmas.
	Invariant func(Snapshot) error
	// MaxStates aborts pathological explorations (0 = 5,000,000).
	MaxStates int
}

// Result summarizes a completed exploration.
type Result struct {
	States      int // distinct reachable product states
	Transitions int // explored (state, action) pairs
}

// Violation is a property failure with the action trace that reaches it.
type Violation struct {
	Property string
	State    Snapshot
	Trace    []string // actions from the initial state
}

func (v *Violation) Error() string {
	return fmt.Sprintf("check: %s at [%s] after %s",
		v.Property, v.State, strings.Join(v.Trace, "; "))
}

// state is the packed product state used as a map key.
type state struct {
	lines [maxCaches]LineView
	n     int
	mem   bool
}

const maxCaches = 6

func (s state) snapshot() Snapshot {
	return Snapshot{Lines: append([]LineView(nil), s.lines[:s.n]...), MemLatest: s.mem}
}

// Run explores the product machine of proto with opt.Caches caches.
func Run(proto coherence.Protocol, opt Options) (Result, error) {
	if opt.Caches < 1 || opt.Caches > maxCaches {
		return Result{}, fmt.Errorf("check: Caches = %d, need 1..%d", opt.Caches, maxCaches)
	}
	maxStates := opt.MaxStates
	if maxStates == 0 {
		maxStates = 5_000_000
	}
	e := &explorer{proto: proto, opt: opt}

	initial := state{n: opt.Caches, mem: true}
	parents := map[state]edge{initial: {}}
	queue := []state{initial}
	res := Result{States: 1}

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if opt.Invariant != nil {
			if err := opt.Invariant(cur.snapshot()); err != nil {
				return res, e.violation(parents, cur, err.Error(), "")
			}
		}
		for _, act := range e.actions(cur) {
			res.Transitions++
			next, verr := act.apply(e, cur)
			if verr != "" {
				return res, e.violation(parents, cur, verr, act.name)
			}
			if _, seen := parents[next]; !seen {
				parents[next] = edge{from: cur, action: act.name}
				queue = append(queue, next)
				res.States++
				if res.States > maxStates {
					return res, fmt.Errorf("check: state space exceeds %d states", maxStates)
				}
			}
		}
	}
	return res, nil
}

// edge records how a state was first reached, for counterexample traces.
type edge struct {
	from   state
	action string
}

type explorer struct {
	proto coherence.Protocol
	opt   Options
}

func (e *explorer) violation(parents map[state]edge, at state, prop, lastAction string) error {
	var trace []string
	if lastAction != "" {
		trace = append(trace, lastAction)
	}
	cur := at
	for {
		ed, ok := parents[cur]
		if !ok || ed.action == "" {
			break
		}
		trace = append(trace, ed.action)
		cur = ed.from
	}
	// Reverse into chronological order.
	for i, j := 0, len(trace)-1; i < j; i, j = i+1, j-1 {
		trace[i], trace[j] = trace[j], trace[i]
	}
	return &Violation{Property: prop, State: at.snapshot(), Trace: trace}
}

// action is one explorable step.
type action struct {
	name  string
	apply func(e *explorer, s state) (state, string)
}

// actions enumerates every step from a state: per PE a read, a write, an
// eviction (if present), and both branches of a Test-and-Set.
func (e *explorer) actions(s state) []action {
	var out []action
	for i := 0; i < s.n; i++ {
		i := i
		out = append(out,
			action{fmt.Sprintf("PE%d read", i), func(e *explorer, s state) (state, string) {
				return e.read(s, i)
			}},
			action{fmt.Sprintf("PE%d write", i), func(e *explorer, s state) (state, string) {
				return e.write(s, i)
			}},
			action{fmt.Sprintf("PE%d ts-fail", i), func(e *explorer, s state) (state, string) {
				return e.testSet(s, i, false)
			}},
			action{fmt.Sprintf("PE%d ts-succeed", i), func(e *explorer, s state) (state, string) {
				return e.testSet(s, i, true)
			}},
		)
		if s.lines[i].Present {
			out = append(out, action{fmt.Sprintf("PE%d evict", i), func(e *explorer, s state) (state, string) {
				return e.evict(s, i)
			}})
		}
	}
	return out
}

func (e *explorer) cur(s state, i int) (coherence.State, uint8) {
	if s.lines[i].Present {
		return s.lines[i].State, s.lines[i].Aux
	}
	return coherence.Invalid, 0
}

// applySnoop folds a snoop outcome into cache j, propagating the given
// data-latest flag on TakeData.
func applySnoop(s *state, j int, out coherence.SnoopOutcome, dataLatest bool) {
	ln := &s.lines[j]
	ln.State, ln.Aux = out.Next, out.NextAux
	switch out.Dirty {
	case coherence.DirtySet:
		ln.Dirty = true
	case coherence.DirtyClear:
		ln.Dirty = false
	case coherence.DirtyKeep:
		// The reaction leaves the dirty bit alone.
	}
	if out.TakeData {
		ln.HasLatest = dataLatest
	}
}

// busWrite performs the global effects of a bus write sourced by src (-1
// for none) carrying data whose latest flag is dataLatest: memory takes
// the value; every other present line reacts.
func (e *explorer) busWrite(s *state, src int, dataLatest bool) string {
	s.mem = dataLatest
	for j := 0; j < s.n; j++ {
		if j == src || !s.lines[j].Present {
			continue
		}
		out := e.proto.OnSnoop(s.lines[j].State, s.lines[j].Aux, s.lines[j].Dirty, coherence.SnBusWrite)
		if out.Inhibit {
			return fmt.Sprintf("cache %d inhibits a bus write", j)
		}
		applySnoop(s, j, out, dataLatest)
		if !out.TakeData {
			// The copy did not adopt the newly minted value; whatever it
			// holds is now stale.
			s.lines[j].HasLatest = false
		}
	}
	return ""
}

// busInv broadcasts the RWB invalidate from src.
func (e *explorer) busInv(s *state, src int) string {
	for j := 0; j < s.n; j++ {
		if j == src || !s.lines[j].Present {
			continue
		}
		out := e.proto.OnSnoop(s.lines[j].State, s.lines[j].Aux, s.lines[j].Dirty, coherence.SnBusInv)
		if out.Inhibit {
			return fmt.Sprintf("cache %d inhibits a bus invalidate", j)
		}
		applySnoop(s, j, out, false)
		s.lines[j].HasLatest = false
	}
	return ""
}

// busRead performs a bus read by cache i, including the interrupt-flush-
// retry protocol, and installs the result. The caller chose installState
// via the protocol's read-miss outcome.
func (e *explorer) busRead(s *state, i int) string {
	// Snoop for an interrupting owner.
	owner := -1
	for j := 0; j < s.n; j++ {
		if j == i || !s.lines[j].Present {
			continue
		}
		out := e.proto.OnSnoop(s.lines[j].State, s.lines[j].Aux, s.lines[j].Dirty, coherence.SnBusRead)
		if out.Inhibit {
			if owner != -1 {
				return fmt.Sprintf("caches %d and %d both interrupt a bus read", owner, j)
			}
			owner = j
			// The owner flushes: its value goes to memory; its own state
			// follows the snoop outcome.
			flushLatest := s.lines[j].HasLatest
			applySnoop(s, j, out, flushLatest)
			s.mem = flushLatest
			// The flush is a bus write observed by everyone else
			// (including the original requester).
			for k := 0; k < s.n; k++ {
				if k == j || !s.lines[k].Present {
					continue
				}
				// The flush re-broadcasts the existing latest value, so
				// copies that do not take it simply keep their current
				// staleness status.
				wout := e.proto.OnSnoop(s.lines[k].State, s.lines[k].Aux, s.lines[k].Dirty, coherence.SnBusWrite)
				applySnoop(s, k, wout, flushLatest)
			}
		} else {
			applySnoop(s, j, out, false)
		}
	}
	// The (retried, if interrupted) read is served. It must not be
	// interrupted again.
	if owner != -1 {
		for j := 0; j < s.n; j++ {
			if j == i || !s.lines[j].Present {
				continue
			}
			if out := e.proto.OnSnoop(s.lines[j].State, s.lines[j].Aux, s.lines[j].Dirty, coherence.SnBusRead); out.Inhibit {
				return fmt.Sprintf("cache %d interrupts the retried read", j)
			}
		}
	}
	// Re-evaluate the requester: the flush broadcast may have satisfied
	// it (RWB), in which case the read completes in-cache.
	st, aux := e.cur(*s, i)
	out := e.proto.OnProc(st, aux, coherence.EvRead)
	if out.Action == coherence.ActNone {
		if !s.lines[i].HasLatest {
			return fmt.Sprintf("PE%d read a stale snarfed value", i)
		}
		s.lines[i].State, s.lines[i].Aux = out.Next, out.NextAux
		return ""
	}
	// Memory answers; its value must be the latest.
	if !s.mem {
		return fmt.Sprintf("PE%d bus read returned a stale memory value", i)
	}
	next := out.Next
	if st == coherence.Invalid {
		shared := false
		for j := 0; j < s.n; j++ {
			if j != i && s.lines[j].Present && s.lines[j].State != coherence.Invalid {
				shared = true
			}
		}
		next = e.proto.ReadMissTarget(shared)
	}
	if !out.NoAllocate {
		s.lines[i] = LineView{Present: true, State: next, Aux: out.NextAux, HasLatest: true}
	}
	// Broadcast of the read data to the other caches.
	for j := 0; j < s.n; j++ {
		if j == i || !s.lines[j].Present {
			continue
		}
		rout := e.proto.OnSnoop(s.lines[j].State, s.lines[j].Aux, s.lines[j].Dirty, coherence.SnReadData)
		applySnoop(s, j, rout, true)
	}
	return ""
}

// read explores a CPU read by PE i.
func (e *explorer) read(s state, i int) (state, string) {
	st, aux := e.cur(s, i)
	out := e.proto.OnProc(st, aux, coherence.EvRead)
	if out.Action == coherence.ActNone {
		// In-cache hit: the theorem's check.
		if !s.lines[i].HasLatest {
			return s, fmt.Sprintf("PE%d read-hit observed a stale value", i)
		}
		s.lines[i].State, s.lines[i].Aux = out.Next, out.NextAux
		return s, ""
	}
	if verr := e.busRead(&s, i); verr != "" {
		return s, verr
	}
	return s, ""
}

// write explores a CPU write by PE i: a brand-new latest value is minted.
func (e *explorer) write(s state, i int) (state, string) {
	st, aux := e.cur(s, i)
	out := e.proto.OnProc(st, aux, coherence.EvWrite)
	switch out.Action {
	case coherence.ActNone:
		// Purely local write: every other copy and memory become stale.
		s.lines[i].State, s.lines[i].Aux = out.Next, out.NextAux
		if out.Dirty == coherence.DirtySet {
			s.lines[i].Dirty = true
		} else if out.Dirty == coherence.DirtyClear {
			s.lines[i].Dirty = false
		}
		s.lines[i].HasLatest = true
		s.mem = false
		for j := 0; j < s.n; j++ {
			if j != i {
				s.lines[j].HasLatest = false
			}
		}
		return s, ""
	case coherence.ActWrite:
		if verr := e.busWrite(&s, i, true); verr != "" {
			return s, verr
		}
		if out.NoAllocate {
			if s.lines[i].Present {
				s.lines[i].State, s.lines[i].Aux = out.Next, out.NextAux
				s.lines[i].Dirty = out.Dirty == coherence.DirtySet
				s.lines[i].HasLatest = true
			}
		} else {
			s.lines[i] = LineView{Present: true, State: out.Next, Aux: out.NextAux,
				Dirty: out.Dirty == coherence.DirtySet, HasLatest: true}
		}
		return s, ""
	case coherence.ActInv:
		if verr := e.busInv(&s, i); verr != "" {
			return s, verr
		}
		s.lines[i] = LineView{Present: true, State: out.Next, Aux: out.NextAux,
			Dirty: out.Dirty == coherence.DirtySet, HasLatest: true}
		s.mem = false
		return s, ""
	case coherence.ActReadThenWrite:
		// A write miss that fetches first (Goodman, Illinois): perform
		// the read, then re-dispatch the write against the installed
		// line (Illinois may now complete it locally in Exclusive).
		if verr := e.busRead(&s, i); verr != "" {
			return s, verr
		}
		st2, aux2 := e.cur(s, i)
		if e.proto.OnProc(st2, aux2, coherence.EvWrite).Action == coherence.ActReadThenWrite {
			return s, fmt.Sprintf("PE%d read-then-write did not converge", i)
		}
		return e.write(s, i)
	default:
		// ActRead answers a CPU write only in a broken table; surface it
		// as a property violation rather than exploring nonsense.
		return s, fmt.Sprintf("PE%d write produced unknown action %v", i, out.Action)
	}
}

// testSet explores a Test-and-Set by PE i with the chosen branch (the
// lock-free/lock-held outcome is data-dependent, so both are explored).
func (e *explorer) testSet(s state, i int, succeed bool) (state, string) {
	st, aux := e.cur(s, i)
	if s.lines[i].Present && e.proto.LocalRMW(st) {
		// In-cache atomic: the locked read is the cached value.
		if !s.lines[i].HasLatest {
			return s, fmt.Sprintf("PE%d local Test-and-Set observed a stale value", i)
		}
		if !succeed {
			return s, ""
		}
		return e.write(s, i)
	}
	// Bus RMW: locked read with dirty-owner flush.
	for j := 0; j < s.n; j++ {
		if j == i || !s.lines[j].Present {
			continue
		}
		flush, next, d := e.proto.RMWFlush(s.lines[j].State, s.lines[j].Dirty)
		if flush {
			s.mem = s.lines[j].HasLatest
			s.lines[j].State = next
			if d == coherence.DirtyClear {
				s.lines[j].Dirty = false
			}
		}
	}
	if !s.mem {
		return s, fmt.Sprintf("PE%d locked read observed a stale memory value", i)
	}
	if !succeed {
		return s, ""
	}
	next, nextAux, bcast := e.proto.RMWSuccess(st, aux)
	if bcast == coherence.ActInv {
		if verr := e.busInv(&s, i); verr != "" {
			return s, verr
		}
	} else {
		if verr := e.busWrite(&s, i, true); verr != "" {
			return s, verr
		}
	}
	// The locked transaction always updates memory with the new value.
	s.mem = true
	if next != coherence.Invalid {
		s.lines[i] = LineView{Present: true, State: next, Aux: nextAux, HasLatest: true}
	} else if s.lines[i].Present {
		s.lines[i] = LineView{}
	}
	return s, ""
}

// evict explores reuse of PE i's line frame.
func (e *explorer) evict(s state, i int) (state, string) {
	ln := s.lines[i]
	if e.proto.WritebackOnEvict(ln.State, ln.Dirty) {
		if verr := e.busWrite(&s, i, ln.HasLatest); verr != "" {
			return s, verr
		}
	}
	s.lines[i] = LineView{}
	// No lost updates: the latest value must survive somewhere.
	if !s.mem {
		ok := false
		for j := 0; j < s.n; j++ {
			if s.lines[j].Present && s.lines[j].HasLatest {
				ok = true
				break
			}
		}
		if !ok {
			return s, fmt.Sprintf("PE%d eviction lost the latest value", i)
		}
	}
	return s, ""
}

// RBLemma is the Section 4 lemma for the RB scheme: every reachable
// configuration is either shared (every present copy Readable) or local
// (exactly one Local copy, every other present copy Invalid), and the
// latest value is held by the Local copy if one exists.
func RBLemma(s Snapshot) error {
	return lemma(s, false)
}

// RWBLemma extends RBLemma with the RWB intermediate configuration: one
// FirstWrite copy with every other present copy Readable, all holding the
// latest (broadcast) value, memory current.
func RWBLemma(s Snapshot) error {
	return lemma(s, true)
}

func lemma(s Snapshot, allowF bool) error {
	var locals, firsts, readables, invalids int
	for _, ln := range s.Lines {
		if !ln.Present {
			continue
		}
		switch ln.State {
		case coherence.Local:
			locals++
			if !ln.HasLatest {
				return fmt.Errorf("a Local copy is stale")
			}
		case coherence.FirstWrite:
			firsts++
			if !allowF {
				return fmt.Errorf("FirstWrite state in an RB machine")
			}
			if !ln.HasLatest {
				return fmt.Errorf("a FirstWrite copy is stale")
			}
		case coherence.Readable:
			readables++
			if !ln.HasLatest {
				return fmt.Errorf("a Readable copy is stale")
			}
		case coherence.Invalid:
			invalids++
		default:
			return fmt.Errorf("foreign state %v", ln.State)
		}
	}
	if locals > 1 {
		return fmt.Errorf("%d Local copies", locals)
	}
	if firsts > 1 {
		return fmt.Errorf("%d FirstWrite copies", firsts)
	}
	if locals == 1 && (readables > 0 || firsts > 0) {
		return fmt.Errorf("local configuration with %d Readable and %d FirstWrite copies", readables, firsts)
	}
	if locals == 0 && !s.MemLatest {
		return fmt.Errorf("no Local copy but memory is stale")
	}
	return nil
}
