package processor

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/memory"
	"repro/internal/workload"
)

// newPE builds a processor with its own single-cache bus rig.
func newPE(t *testing.T, agent workload.Agent) (*Processor, *bus.Bus, *memory.Memory) {
	t.Helper()
	mem := memory.New()
	b := bus.New(mem)
	c := cache.MustNew(0, coherence.New(coherence.KindRB), cache.Config{Lines: 16})
	b.Attach(0, c)
	b.AttachRequester(0, c)
	return New(0, agent, c), b, mem
}

// spin drives the PE to completion of its current blocked op.
func spin(t *testing.T, p *Processor, b *bus.Bus) {
	t.Helper()
	for i := 0; i < 100 && p.Status() == StatusBlocked; i++ {
		if _, want := p.Cache().WantsBus(); want && !b.Slotted(0) {
			b.RequestSlot(0)
		}
		if req, res, ok := b.Tick(); ok {
			p.Cache().BusCompleted(req, res)
		}
		if v, ok := p.Cache().TakeResolved(); ok {
			p.Deliver(v)
		}
	}
	if p.Status() == StatusBlocked {
		t.Fatal("PE still blocked after 100 cycles")
	}
}

func TestStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{
		StatusReady: "ready", StatusBlocked: "blocked",
		StatusComputing: "computing", StatusHalted: "halted",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
	if Status(9).String() == "" {
		t.Error("unknown status empty")
	}
}

func TestHaltImmediately(t *testing.T) {
	p, _, _ := newPE(t, workload.Idle())
	p.CPUPhase()
	if p.Stats().Retired != 0 {
		t.Fatal("halting PE retired an op")
	}
	if !p.Halted() {
		t.Fatal("PE not halted")
	}
	// Further phases are no-ops.
	p.CPUPhase()
	if p.Stats().Retired != 0 {
		t.Fatal("halted PE retired")
	}
}

func TestMissBlocksAndDeliverResumes(t *testing.T) {
	p, b, mem := newPE(t, workload.NewTrace(
		workload.Read(5, coherence.ClassShared),
		workload.Read(5, coherence.ClassShared), // hit after install
	))
	mem.Poke(5, 42)
	p.CPUPhase()
	if p.Stats().Retired != 0 {
		t.Fatal("miss retired synchronously")
	}
	if p.Status() != StatusBlocked {
		t.Fatalf("status = %v, want blocked", p.Status())
	}
	// A blocked phase counts as a stall.
	p.CPUPhase()
	if p.Stats().StallCycles != 1 {
		t.Fatalf("stalls = %d", p.Stats().StallCycles)
	}
	spin(t, p, b)
	// The agent sees the delivered value and retires the hit, whose value
	// it receives next.
	p.CPUPhase()
	if p.lastResult.Value != 42 {
		t.Fatalf("hit delivered %d to the agent, want 42", p.lastResult.Value)
	}
	st := p.Stats()
	if st.Reads != 2 || st.Retired != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestComputeCounts(t *testing.T) {
	p, _, _ := newPE(t, workload.NewTrace(workload.Compute(3), workload.Halt()))
	p.CPUPhase() // issues compute, 1st cycle
	if p.Status() != StatusComputing {
		t.Fatalf("status = %v", p.Status())
	}
	p.CPUPhase()
	p.CPUPhase() // 3rd cycle finishes
	if p.Status() != StatusReady {
		t.Fatalf("status after 3 cycles = %v", p.Status())
	}
	if p.Stats().ComputeCycles != 3 {
		t.Fatalf("compute cycles = %d", p.Stats().ComputeCycles)
	}
	p.CPUPhase()
	if !p.Halted() {
		t.Fatal("not halted after compute")
	}
}

func TestZeroCycleComputeIsFree(t *testing.T) {
	p, _, _ := newPE(t, workload.NewTrace(workload.Compute(0), workload.Halt()))
	p.CPUPhase()
	if p.Status() != StatusReady {
		t.Fatalf("status = %v, want ready (0-cycle compute)", p.Status())
	}
}

func TestTestSetResultFeedsAgent(t *testing.T) {
	var observed []bus.Word
	agent := workload.Func(func(prev workload.Result) workload.Op {
		observed = append(observed, prev.Value)
		if len(observed) > 2 {
			return workload.Halt()
		}
		return workload.TestSet(8, 1)
	})
	p, b, _ := newPE(t, agent)
	p.CPUPhase() // TS #1 (miss -> bus)
	spin(t, p, b)
	p.CPUPhase() // TS #2: line now Local -> in-cache
	if p.Stats().TestSets != 2 {
		t.Fatalf("test-sets = %d", p.Stats().TestSets)
	}
	p.CPUPhase() // halt
	// First Next saw 0 (initial), second saw 0 (TS#1 old), third saw 1.
	if len(observed) != 3 || observed[1] != 0 || observed[2] != 1 {
		t.Fatalf("observed = %v", observed)
	}
}

func TestDeliverWhenNotBlockedPanics(t *testing.T) {
	p, _, _ := newPE(t, workload.Idle())
	defer func() {
		if recover() == nil {
			t.Fatal("Deliver on ready PE did not panic")
		}
	}()
	p.Deliver(0)
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil agent) did not panic")
		}
	}()
	New(0, nil, cache.MustNew(0, coherence.New(coherence.KindRB), cache.Config{Lines: 4}))
}

func TestTwoPhaseTestSetAtProcessorLevel(t *testing.T) {
	// One PE against its own bus: the TS decomposes into a locked read
	// then an unlocking write, and the agent receives the old value.
	var results []bus.Word
	agent := workload.Func(func(prev workload.Result) workload.Op {
		results = append(results, prev.Value)
		switch len(results) {
		case 1, 2:
			return workload.TestSet(8, 1)
		}
		return workload.Halt()
	})
	p, b, mem := newPE(t, agent)
	p.SetTwoPhaseRMW(true)
	if p.ID() != 0 {
		t.Fatal("ID broken")
	}

	// TS #1: phase 1 (locked read) blocks the PE.
	p.CPUPhase()
	if p.Status() != StatusBlocked || p.Stats().Retired != 0 {
		t.Fatal("two-phase TS retired synchronously")
	}
	drive := func() {
		for i := 0; i < 50 && p.Status() == StatusBlocked; i++ {
			if _, want := p.Cache().WantsBus(); want && !b.Slotted(0) {
				b.RequestSlot(0)
			}
			if req, res, ok := b.Tick(); ok {
				p.Cache().BusCompleted(req, res)
			}
			if v, ok := p.Cache().TakeResolved(); ok {
				p.Deliver(v)
			}
		}
	}
	drive()
	if p.Status() != StatusReady {
		t.Fatalf("status = %v after two-phase TS", p.Status())
	}
	if mem.Peek(8) != 1 {
		t.Fatal("lock not taken in memory")
	}
	if h, _ := b.Locked(); h != -1 {
		t.Fatal("bus lock not released")
	}

	// TS #2: the winner's line is Local now (RB write transition), so the
	// in-cache fast path fires and the failure is observed.
	p.CPUPhase()
	if p.Stats().Retired != 2 || p.lastResult.Value != 1 {
		t.Fatalf("second TS should fail in-cache with old=1: retired %d, old %d", p.Stats().Retired, p.lastResult.Value)
	}
	p.CPUPhase() // halt
	// Agent saw: initial zero, then old=0 (success), then old=1 (failure).
	if len(results) != 3 || results[1] != 0 || results[2] != 1 {
		t.Fatalf("agent results = %v", results)
	}
	if p.Stats().TestSets != 2 {
		t.Fatalf("test-sets = %d", p.Stats().TestSets)
	}
}

func TestTwoPhaseFailedTSRestoresValue(t *testing.T) {
	// The lock word starts held (nonzero): the failed attempt's unlock
	// write restores the old value and changes nothing.
	agent := workload.NewTrace(workload.TestSet(8, 1))
	p, b, mem := newPE(t, agent)
	p.SetTwoPhaseRMW(true)
	mem.Poke(8, 7)
	p.CPUPhase()
	for i := 0; i < 50 && p.Status() == StatusBlocked; i++ {
		if _, want := p.Cache().WantsBus(); want && !b.Slotted(0) {
			b.RequestSlot(0)
		}
		if req, res, ok := b.Tick(); ok {
			p.Cache().BusCompleted(req, res)
		}
		if v, ok := p.Cache().TakeResolved(); ok {
			p.Deliver(v)
		}
	}
	if p.Status() != StatusReady {
		t.Fatalf("status = %v", p.Status())
	}
	if mem.Peek(8) != 7 {
		t.Fatalf("failed TS changed the word to %d", mem.Peek(8))
	}
	if h, _ := b.Locked(); h != -1 {
		t.Fatal("bus lock leaked")
	}
	// The failing PE's cache did not adopt the line (non-cachable path).
	if _, _, present := p.Cache().Lookup(8); present {
		t.Fatal("failed TS installed a line")
	}
}
