package workload

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/coherence"
)

// This file builds the classic centralized synchronization constructs of
// the period on top of Test-and-Set / Test-and-Test-and-Set — the "many
// types of synchronization primitives" Section 6 alludes to. They are the
// workloads where the paper's caching of shared data pays off: the barrier
// sense word and the semaphore count are written by one PE and then read
// by all the others (the Section 5 "cyclical pattern").

// BarrierConfig parameterizes a sense-reversing centralized barrier.
type BarrierConfig struct {
	// Lock guards the arrival counter.
	Lock bus.Addr
	// Counter counts arrivals in the current round.
	Counter bus.Addr
	// Sense is the word everyone spins on; it flips each round.
	Sense bus.Addr
	// Progress is the base of one word per participant where each PE
	// publishes the round it is entering — used to verify barrier
	// semantics (nobody leaves round r before everyone entered it).
	Progress bus.Addr
	// Participants is the number of PEs meeting at the barrier.
	Participants int
	// Rounds to execute before halting.
	Rounds int
	// WorkCycles of compute at the start of each round (the parallel
	// phase the barrier separates).
	WorkCycles int
	// ID is this agent's index in [0, Participants).
	ID int
}

func (c BarrierConfig) validate() error {
	if c.Participants < 1 || c.Rounds < 1 {
		return fmt.Errorf("workload: barrier needs participants and rounds")
	}
	if c.ID < 0 || c.ID >= c.Participants {
		return fmt.Errorf("workload: barrier ID %d out of range", c.ID)
	}
	if c.WorkCycles < 0 {
		return fmt.Errorf("workload: negative work cycles")
	}
	return nil
}

// barrierPhase names the operation the agent issued last.
type barrierPhase uint8

const (
	bStart barrierPhase = iota
	bWorked
	bPublished
	bTestedLock
	bTSedLock
	bReadCounter
	bWroteIncrement
	bWroteReset
	bWroteSense
	bReleasedWaiter
	bSpinningSense
	bVerifying
	bHalted
)

// Barrier is one participant of a sense-reversing centralized barrier.
// Arrival is counted under a TTS-acquired lock; the last arriver resets
// the counter and flips the sense word, which everyone else spins on — in
// their caches, under the paper's schemes. Both waits are Spinner spins:
// the lock test while the lock reads held, the sense spin until the sense
// word flips.
type Barrier struct {
	cfg   BarrierConfig
	phase barrierPhase

	round     int      // completed rounds
	count     bus.Word // counter value read under the lock
	verifyPE  int
	verifyErr error
	// lastIssuedProgressRead distinguishes the verification loop's first
	// entry (whose prev carries an unrelated result) from later entries.
	lastIssuedProgressRead bool
}

// NewBarrier builds one participant.
func NewBarrier(cfg BarrierConfig) (*Barrier, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Barrier{cfg: cfg}, nil
}

// MustBarrier is NewBarrier panicking on error.
func MustBarrier(cfg BarrierConfig) *Barrier {
	b, err := NewBarrier(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// Rounds returns the completed round count.
func (b *Barrier) Rounds() int { return b.round }

// Err returns the first barrier-semantics violation this agent observed
// (a peer still in an earlier round after the barrier opened), or nil.
func (b *Barrier) Err() error { return b.verifyErr }

// targetSense is the sense value that opens round b.round (0-indexed):
// the sense word starts at 0 and the last arriver of round r writes
// (r+1) & 1.
func (b *Barrier) targetSense() bus.Word { return bus.Word((b.round + 1) & 1) }

// Spinning implements Spinner.
func (b *Barrier) Spinning(v bus.Word) (bus.Addr, coherence.Class, bool) {
	switch {
	case b.phase == bTestedLock && v != 0:
		return b.cfg.Lock, coherence.ClassShared, true
	case b.phase == bSpinningSense && v != b.targetSense():
		return b.cfg.Sense, coherence.ClassShared, true
	}
	return 0, 0, false
}

// SkipSpins implements Spinner: a spin changes none of the barrier's
// state, so there is nothing to count.
func (b *Barrier) SkipSpins(uint64) {}

// Next implements Agent.
func (b *Barrier) Next(prev Result) Op {
	switch b.phase {
	case bStart:
		if b.round >= b.cfg.Rounds {
			b.phase = bHalted
			return Halt()
		}
		b.phase = bWorked
		if b.cfg.WorkCycles > 0 {
			return Compute(b.cfg.WorkCycles)
		}
		return b.Next(prev) // no parallel phase configured
	case bWorked:
		// Publish the round we are entering (1-based).
		b.phase = bPublished
		return Write(b.cfg.Progress+bus.Addr(b.cfg.ID), bus.Word(b.round+1), coherence.ClassShared)
	case bPublished:
		b.phase = bTestedLock
		return Read(b.cfg.Lock, coherence.ClassShared)
	case bTestedLock:
		if prev.Value != 0 {
			return Read(b.cfg.Lock, coherence.ClassShared) // spin in cache
		}
		b.phase = bTSedLock
		return TestSet(b.cfg.Lock, 1)
	case bTSedLock:
		if prev.Value != 0 {
			b.phase = bTestedLock
			return Read(b.cfg.Lock, coherence.ClassShared)
		}
		b.phase = bReadCounter
		return Read(b.cfg.Counter, coherence.ClassShared)
	case bReadCounter:
		b.count = prev.Value
		if int(b.count)+1 == b.cfg.Participants {
			// Last arriver: reset the counter for the next round.
			b.phase = bWroteReset
			return Write(b.cfg.Counter, 0, coherence.ClassShared)
		}
		b.phase = bWroteIncrement
		return Write(b.cfg.Counter, b.count+1, coherence.ClassShared)
	case bWroteReset:
		// Open the barrier: flip the sense everyone is spinning on.
		b.phase = bWroteSense
		return Write(b.cfg.Sense, b.targetSense(), coherence.ClassShared)
	case bWroteSense:
		// Release the lock; the round is complete for the last arriver.
		b.round++
		b.phase = bVerifying
		b.verifyPE = 0
		return Write(b.cfg.Lock, 0, coherence.ClassShared)
	case bWroteIncrement:
		b.phase = bReleasedWaiter
		return Write(b.cfg.Lock, 0, coherence.ClassShared)
	case bReleasedWaiter:
		b.phase = bSpinningSense
		return Read(b.cfg.Sense, coherence.ClassShared)
	case bSpinningSense:
		if prev.Value != b.targetSense() {
			return Read(b.cfg.Sense, coherence.ClassShared) // spin in cache
		}
		b.round++
		b.phase = bVerifying
		b.verifyPE = 0
		b.lastIssuedProgressRead = true
		return Read(b.cfg.Progress+bus.Addr(b.verifyPE), coherence.ClassShared)
	case bVerifying:
		// After passing the barrier, every peer must have entered (at
		// least) the round we just completed. The first call after
		// bWroteSense carries the lock release's result, not a progress
		// value; detect that by verifyPE == 0 having issued no read yet.
		if b.lastIssuedProgressRead {
			if int(prev.Value) < b.round && b.verifyErr == nil {
				b.verifyErr = fmt.Errorf("workload: barrier violation: PE%d saw peer %d at round %d after completing round %d",
					b.cfg.ID, b.verifyPE, prev.Value, b.round)
			}
			b.verifyPE++
		}
		if b.verifyPE < b.cfg.Participants {
			b.lastIssuedProgressRead = true
			return Read(b.cfg.Progress+bus.Addr(b.verifyPE), coherence.ClassShared)
		}
		b.lastIssuedProgressRead = false
		b.phase = bStart
		return b.Next(Result{})
	case bHalted:
		return Halt()
	}
	return Halt()
}

// SemaphoreConfig parameterizes a counting-semaphore agent: P (wait),
// critical work, V (signal), repeated.
type SemaphoreConfig struct {
	// Lock guards the count.
	Lock bus.Addr
	// Count is the semaphore value; initialize memory to the capacity
	// before the run (the machine's memory starts at zero, so use
	// InitOps to set it, or dedicate PE0's first operation to it).
	Count bus.Addr
	// Iterations is the number of P/V pairs to perform.
	Iterations int
	// HoldCycles of compute while holding the semaphore.
	HoldCycles int
	// Initialize, when true, makes this agent's first action a write of
	// Capacity to the count word (exactly one participant should set it).
	Initialize bool
	Capacity   bus.Word
}

func (c SemaphoreConfig) validate() error {
	if c.Iterations < 1 {
		return fmt.Errorf("workload: semaphore needs iterations")
	}
	if c.HoldCycles < 0 {
		return fmt.Errorf("workload: negative hold cycles")
	}
	if c.Initialize && c.Capacity < 1 {
		return fmt.Errorf("workload: semaphore capacity must be positive")
	}
	return nil
}

type semPhase uint8

const (
	sInit semPhase = iota
	sStart
	sTestedLock
	sTSedLock
	sReadCount
	sWroteDecrement
	sSpunCount
	sHeld
	sVTestedLock
	sVTSedLock
	sVReadCount
	sVWroteIncrement
	sHalted
)

// Semaphore is one client of a counting semaphore built from a TTS lock
// and a count word. P spins — in cache — on the count while the semaphore
// is exhausted.
type Semaphore struct {
	cfg      SemaphoreConfig
	phase    semPhase
	done     int
	acquired int
	// spunOnce marks that the count-spin loop has issued at least one
	// count read (its first prev is the lock release's result).
	spunOnce bool
	// vNeedsTest marks that the V phase was entered via a Compute op, so
	// the lock test must be issued before prev can be interpreted.
	vNeedsTest bool
}

// NewSemaphore builds one client.
func NewSemaphore(cfg SemaphoreConfig) (*Semaphore, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Semaphore{cfg: cfg}
	if !cfg.Initialize {
		s.phase = sStart
	}
	return s, nil
}

// MustSemaphore is NewSemaphore panicking on error.
func MustSemaphore(cfg SemaphoreConfig) *Semaphore {
	s, err := NewSemaphore(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Completed returns the number of finished P/V pairs.
func (s *Semaphore) Completed() int { return s.done }

// Next implements Agent.
func (s *Semaphore) Next(prev Result) Op {
	switch s.phase {
	case sInit:
		s.phase = sStart
		return Write(s.cfg.Count, s.cfg.Capacity, coherence.ClassShared)
	case sStart:
		if s.done >= s.cfg.Iterations {
			s.phase = sHalted
			return Halt()
		}
		s.phase = sTestedLock
		return Read(s.cfg.Lock, coherence.ClassShared)
	case sTestedLock:
		if prev.Value != 0 {
			return Read(s.cfg.Lock, coherence.ClassShared)
		}
		s.phase = sTSedLock
		return TestSet(s.cfg.Lock, 1)
	case sTSedLock:
		if prev.Value != 0 {
			s.phase = sTestedLock
			return Read(s.cfg.Lock, coherence.ClassShared)
		}
		s.phase = sReadCount
		return Read(s.cfg.Count, coherence.ClassShared)
	case sReadCount:
		if prev.Value == 0 {
			// Exhausted: release the lock and spin on the count outside
			// it (the TTS idea applied to the semaphore value).
			s.phase = sSpunCount
			return Write(s.cfg.Lock, 0, coherence.ClassShared)
		}
		s.phase = sWroteDecrement
		return Write(s.cfg.Count, prev.Value-1, coherence.ClassShared)
	case sSpunCount:
		// prev is either the lock release or a count read; keep reading
		// the count until it looks positive, then retry the lock.
		if prev.Value > 0 && s.spunOnce {
			s.spunOnce = false
			s.phase = sTestedLock
			return Read(s.cfg.Lock, coherence.ClassShared)
		}
		s.spunOnce = true
		return Read(s.cfg.Count, coherence.ClassShared)
	case sWroteDecrement:
		// Holding a unit: release the lock, then do the critical work.
		s.acquired++
		s.phase = sHeld
		return Write(s.cfg.Lock, 0, coherence.ClassShared)
	case sHeld:
		s.phase = sVTestedLock
		if s.cfg.HoldCycles > 0 {
			s.vNeedsTest = true
			return Compute(s.cfg.HoldCycles)
		}
		return Read(s.cfg.Lock, coherence.ClassShared)
	case sVTestedLock:
		if s.vNeedsTest {
			s.vNeedsTest = false
			return Read(s.cfg.Lock, coherence.ClassShared)
		}
		if prev.Value != 0 {
			return Read(s.cfg.Lock, coherence.ClassShared)
		}
		s.phase = sVTSedLock
		return TestSet(s.cfg.Lock, 1)
	case sVTSedLock:
		if prev.Value != 0 {
			s.phase = sVTestedLock
			return Read(s.cfg.Lock, coherence.ClassShared)
		}
		s.phase = sVReadCount
		return Read(s.cfg.Count, coherence.ClassShared)
	case sVReadCount:
		s.phase = sVWroteIncrement
		return Write(s.cfg.Count, prev.Value+1, coherence.ClassShared)
	case sVWroteIncrement:
		s.done++
		s.phase = sStart
		return Write(s.cfg.Lock, 0, coherence.ClassShared)
	case sHalted:
		return Halt()
	}
	return Halt()
}
