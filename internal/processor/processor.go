// Package processor models a processing element: it executes a reactive
// workload.Agent one operation per cycle against its private cache,
// blocking while the cache completes bus work (paper assumption 5: the PE
// waits for the cache, never the other way around).
package processor

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/workload"
)

// Status is the PE's execution state.
type Status uint8

const (
	// StatusReady: the PE will issue its next operation this CPU phase.
	StatusReady Status = iota
	// StatusBlocked: an access is in the cache/bus pipeline.
	StatusBlocked
	// StatusComputing: executing processor-internal work.
	StatusComputing
	// StatusHalted: the agent returned OpHalt.
	StatusHalted
)

func (s Status) String() string {
	switch s {
	case StatusReady:
		return "ready"
	case StatusBlocked:
		return "blocked"
	case StatusComputing:
		return "computing"
	case StatusHalted:
		return "halted"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Stats counts retired operations and stall time.
type Stats struct {
	Reads         uint64
	Writes        uint64
	TestSets      uint64
	ComputeCycles uint64
	StallCycles   uint64 // cycles spent blocked on the cache
	Retired       uint64 // total memory operations completed
}

// Processor is one PE.
type Processor struct {
	id     int
	agent  workload.Agent
	cache  *cache.Cache
	status Status

	current    workload.Op // in-flight operation (StatusBlocked)
	computing  int         // remaining compute cycles
	lastResult workload.Result
	stats      Stats

	// Two-phase Test-and-Set (the paper's textual read-with-lock /
	// write-with-unlock realization, selected by the machine).
	twoPhase bool
	tsPhase  uint8 // 0 idle, 1 awaiting locked read, 2 awaiting unlock
	tsOld    bus.Word
}

// SetTwoPhaseRMW selects the two-phase Test-and-Set realization: a locked
// bus read, a processor-side test, and an unlocking write-back (of the
// new value on success, of the old value on failure), instead of the
// fused bus read-modify-write transaction.
func (p *Processor) SetTwoPhaseRMW(on bool) { p.twoPhase = on }

// New wires a PE to its cache and program.
func New(id int, agent workload.Agent, c *cache.Cache) *Processor {
	if agent == nil || c == nil {
		panic("processor: nil agent or cache")
	}
	return &Processor{id: id, agent: agent, cache: c}
}

// ID returns the PE index.
func (p *Processor) ID() int { return p.id }

// Status returns the current execution state.
func (p *Processor) Status() Status { return p.status }

// Halted reports whether the program has finished.
func (p *Processor) Halted() bool { return p.status == StatusHalted }

// Stats returns a snapshot of the counters.
func (p *Processor) Stats() Stats { return p.stats }

// Cache returns the PE's private cache.
func (p *Processor) Cache() *cache.Cache { return p.cache }

// CreditStall adds n blocked cycles at once, for a driver that skips
// CPUPhase on a blocked PE instead of calling it to count each one.
func (p *Processor) CreditStall(n uint64) { p.stats.StallCycles += n }

// CreditReads adds n retired reads at once, for a driver that skips the
// CPUPhase calls of a PE re-reading a line that cannot change: each would
// have retired a read hit and left LastResult as it is.
func (p *Processor) CreditReads(n uint64) {
	p.stats.Reads += n
	p.stats.Retired += n
}

// LastResult returns the result the agent is fed at the PE's next issue.
func (p *Processor) LastResult() workload.Result { return p.lastResult }

// CPUPhase runs the PE for one cycle: a ready PE issues its agent's next
// operation, which retires at once on a cache hit and otherwise blocks the
// PE until Deliver.
func (p *Processor) CPUPhase() {
	switch p.status {
	case StatusReady:
		// Fall past the switch and issue the next operation.
	case StatusHalted:
		return
	case StatusBlocked:
		p.stats.StallCycles++
		return
	case StatusComputing:
		p.computing--
		p.stats.ComputeCycles++
		if p.computing <= 0 {
			p.status = StatusReady
		}
		return
	}
	op := p.agent.Next(p.lastResult)
	p.lastResult = workload.Result{}
	switch op.Kind {
	case workload.OpHalt:
		p.status = StatusHalted
		return
	case workload.OpCompute:
		if op.Cycles > 0 {
			p.status = StatusComputing
			p.computing = op.Cycles
			p.computing-- // this cycle counts
			p.stats.ComputeCycles++
			if p.computing <= 0 {
				p.status = StatusReady
			}
		}
		return
	case workload.OpRead, workload.OpWrite:
		ev := coherence.EvRead
		if op.Kind == workload.OpWrite {
			ev = coherence.EvWrite
		}
		if done, v := p.cache.Access(ev, op.Addr, op.Data, op.Class); done {
			p.retire(op, v)
			return
		}
	case workload.OpTestSet:
		if p.twoPhase {
			// The in-cache fast path still applies when the line is
			// exclusive; otherwise start phase 1: the locked read.
			if done, old := p.cache.TryLocalRMW(op.Addr, op.Data); done {
				p.retire(op, old)
				return
			}
			p.cache.AccessLockedRead(op.Addr)
			p.tsPhase = 1
		} else if done, old := p.cache.AccessRMW(op.Addr, op.Data); done {
			p.retire(op, old)
			return
		}
	default:
		panic(fmt.Sprintf("processor %d: unknown op kind %v", p.id, op.Kind))
	}
	// The access went to the bus: the PE waits for the cache.
	p.current = op
	p.status = StatusBlocked
}

// Deliver completes the blocked operation with the value the cache
// resolved; a two-phase Test-and-Set's locked read instead starts the
// unlocking write, and the PE stays blocked on it.
func (p *Processor) Deliver(v bus.Word) {
	if p.status != StatusBlocked {
		panic(fmt.Sprintf("processor %d: Deliver while %v", p.id, p.status))
	}
	switch p.tsPhase {
	case 1:
		// Locked read done: test, then store back with unlock — the new
		// value on success, the untouched old value on failure ("the PE
		// then performs some operation on the value that may modify it").
		p.tsOld = v
		if v == 0 {
			p.cache.AccessUnlockWrite(p.current.Addr, p.current.Data, true)
		} else {
			p.cache.AccessUnlockWrite(p.current.Addr, v, false)
		}
		p.tsPhase = 2
		return // still blocked on phase 2
	case 2:
		p.tsPhase = 0
		v = p.tsOld
	}
	p.status = StatusReady
	p.retire(p.current, v)
}

func (p *Processor) retire(op workload.Op, v bus.Word) {
	p.stats.Retired++
	switch op.Kind {
	case workload.OpRead:
		p.stats.Reads++
	case workload.OpWrite:
		p.stats.Writes++
	case workload.OpTestSet:
		p.stats.TestSets++
	default:
		// Computes and halts complete inside CPUPhase; they never retire
		// through the memory path.
		panic(fmt.Sprintf("processor %d: retiring non-memory op %v", p.id, op.Kind))
	}
	p.lastResult = workload.Result{Value: v}
}
