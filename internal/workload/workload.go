// Package workload defines the programs the simulated processing elements
// execute and the generators that synthesize the paper's workloads.
//
// The paper's measurements came from two sources we cannot rerun: Raskin's
// Cm* application traces (Table 1-1) and hand-worked synchronization
// scenarios (Figures 6-1..6-3). Both are reproduced here as deterministic
// generators: a synthetic application with the reference mix and locality
// the paper reports, and scripted/reactive lock-contention agents built
// from Test-and-Set and Test-and-Test-and-Set.
//
// An Agent is a reactive program: the processor asks it for one operation
// at a time, feeding back the result of the previous operation (the value
// read, or the old value of a Test-and-Set). Reactivity is what lets a
// spin-lock agent decide, after seeing the lock byte, whether to spin in
// the cache or issue the atomic bus operation — the essence of TTS.
package workload

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/coherence"
)

// OpKind enumerates processor operations.
type OpKind uint8

const (
	// OpRead is a plain load (cachable per the protocol).
	OpRead OpKind = iota
	// OpWrite is a plain store.
	OpWrite
	// OpTestSet is the atomic Test-and-Set instruction of Section 6: if
	// the word is 0 it becomes Data; the old value is returned either way.
	OpTestSet
	// OpCompute models Cycles of processor-internal work: no memory
	// reference, no bus pressure.
	OpCompute
	// OpHalt ends the agent's execution; the processor idles forever.
	OpHalt
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpTestSet:
		return "ts"
	case OpCompute:
		return "compute"
	case OpHalt:
		return "halt"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one processor operation.
type Op struct {
	Kind   OpKind
	Addr   bus.Addr
	Data   bus.Word        // store value / Test-and-Set value
	Class  coherence.Class // reference class (statistics; Cm* cachability)
	Cycles int             // OpCompute duration
}

// Convenience constructors keep generator code terse.

// Read builds a load of the given class.
func Read(a bus.Addr, class coherence.Class) Op {
	return Op{Kind: OpRead, Addr: a, Class: class}
}

// Write builds a store of the given class.
func Write(a bus.Addr, v bus.Word, class coherence.Class) Op {
	return Op{Kind: OpWrite, Addr: a, Data: v, Class: class}
}

// TestSet builds a Test-and-Set of v (normally 1).
func TestSet(a bus.Addr, v bus.Word) Op {
	return Op{Kind: OpTestSet, Addr: a, Data: v, Class: coherence.ClassShared}
}

// Compute builds n cycles of processor-internal work.
func Compute(n int) Op { return Op{Kind: OpCompute, Cycles: n} }

// Halt ends the program.
func Halt() Op { return Op{Kind: OpHalt} }

// Result carries the outcome of the previously issued operation back to
// the agent: the loaded value for OpRead, the old word for OpTestSet
// (0 means the set succeeded), and zero otherwise.
type Result struct {
	Value bus.Word
}

// Agent is a reactive processor program.
type Agent interface {
	// Next returns the next operation given the previous operation's
	// result. The first call receives a zero Result. After returning an
	// OpHalt, Next is not called again.
	Next(prev Result) Op
}

// Reseeder is an Agent that can return to its freshly constructed state
// for a new base seed, deriving any per-PE stream from it internally
// exactly as its constructor would. Its only user is the deprecated
// Machine.Reset, which requires every agent to implement it.
type Reseeder interface {
	Agent
	// Reseed discards all run state and re-derives the stream from the
	// base seed, so the agent behaves as if just constructed with it.
	Reseed(seed uint64)
}

// Trace is an Agent replaying a fixed operation sequence, then halting.
// It implements Reseeder — replay has no seed, so Reseed just rewinds —
// for the deprecated Machine.Reset, its only user.
type Trace struct {
	Ops []Op
	pos int
}

// NewTrace copies ops into a replay agent.
func NewTrace(ops ...Op) *Trace {
	t := &Trace{Ops: make([]Op, len(ops))}
	copy(t.Ops, ops)
	return t
}

// Next implements Agent.
func (t *Trace) Next(Result) Op {
	if t.pos >= len(t.Ops) {
		return Halt()
	}
	op := t.Ops[t.pos]
	t.pos++
	return op
}

// Reseed implements Reseeder: a trace's stream is seed-independent, so
// any seed rewinds the replay to the first operation.
func (t *Trace) Reseed(uint64) { t.pos = 0 }

// Func adapts a function to the Agent interface.
type Func func(prev Result) Op

// Next implements Agent.
func (f Func) Next(prev Result) Op { return f(prev) }

// Idle is an Agent that halts immediately.
func Idle() Agent { return NewTrace() }
