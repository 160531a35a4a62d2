package bus

import (
	"testing"
)

// fakeMem is a map-backed Memory for tests.
type fakeMem struct {
	words  map[Addr]Word
	reads  int
	writes int
}

func newFakeMem() *fakeMem { return &fakeMem{words: make(map[Addr]Word)} }

func (m *fakeMem) ReadWord(a Addr) Word     { m.reads++; return m.words[a] }
func (m *fakeMem) WriteWord(a Addr, w Word) { m.writes++; m.words[a] = w }

// recSnooper records snoop callbacks and can be programmed to inhibit.
type recSnooper struct {
	inhibitRead  bool
	flushRMW     bool
	flushData    Word
	writesSeen   []Request
	readDataSeen []Word
	rmwSnoops    int
}

func (s *recSnooper) SnoopRead(a Addr, src int) (bool, Word) {
	return s.inhibitRead, s.flushData
}

func (s *recSnooper) SnoopRMWRead(a Addr, src int) (bool, Word) {
	s.rmwSnoops++
	return s.flushRMW, s.flushData
}

func (s *recSnooper) ObserveWrite(op Op, a Addr, d Word, src int) {
	s.writesSeen = append(s.writesSeen, Request{Source: src, Op: op, Addr: a, Data: d})
}

func (s *recSnooper) ObserveReadData(a Addr, d Word, src int) {
	s.readDataSeen = append(s.readDataSeen, d)
}

// stubReq answers grants from a queue of requests; nil entries withdraw.
type stubReq struct {
	queue  []*Request
	grants int
}

func (r *stubReq) BusGrant(bank, banks int) (Request, bool) {
	r.grants++
	if len(r.queue) == 0 {
		return Request{}, false
	}
	head := r.queue[0]
	r.queue = r.queue[1:]
	if head == nil {
		return Request{}, false
	}
	return *head, true
}

// attach wires a requester that will supply the given requests for source
// id and asserts its slot.
func attach(b *Bus, id int, reqs ...*Request) *stubReq {
	r := &stubReq{queue: reqs}
	b.AttachRequester(id, r)
	b.RequestSlot(id)
	return r
}

func TestOpString(t *testing.T) {
	cases := map[Op]string{OpRead: "BR", OpWrite: "BW", OpInv: "BI", OpRMW: "RMW"}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", op, got, want)
		}
	}
	if got := Op(99).String(); got != "Op(99)" {
		t.Errorf("unknown op String() = %q", got)
	}
}

func TestIdleCycle(t *testing.T) {
	b := New(newFakeMem())
	if _, _, granted := b.Tick(); granted {
		t.Fatal("idle Tick granted a transaction")
	}
	st := b.Stats()
	if st.IdleCycles != 1 || st.BusyCycles != 0 {
		t.Fatalf("stats = %+v, want 1 idle", st)
	}
}

func TestReadFromMemoryBroadcastsData(t *testing.T) {
	mem := newFakeMem()
	mem.words[5] = 42
	b := New(mem)
	s1, s2 := &recSnooper{}, &recSnooper{}
	b.Attach(1, s1)
	b.Attach(2, s2)
	attach(b, 0, &Request{Op: OpRead, Addr: 5})

	req, res, granted := b.Tick()
	if !granted || req.Op != OpRead || req.Source != 0 {
		t.Fatalf("read not granted: %+v", req)
	}
	if res.Killed || res.Data != 42 {
		t.Fatalf("result = %+v, want data 42", res)
	}
	if len(s1.readDataSeen) != 1 || s1.readDataSeen[0] != 42 {
		t.Fatalf("snooper 1 read-data = %v, want [42]", s1.readDataSeen)
	}
	if len(s2.readDataSeen) != 1 {
		t.Fatalf("snooper 2 did not observe the broadcast")
	}
}

func TestReadNotOfferedToIssuer(t *testing.T) {
	b := New(newFakeMem())
	issuer := &recSnooper{inhibitRead: true, flushData: 9} // would inhibit its own read
	b.Attach(0, issuer)
	attach(b, 0, &Request{Op: OpRead, Addr: 1})
	_, res, _ := b.Tick()
	if res.Killed {
		t.Fatal("issuer's own snooper inhibited its read")
	}
	if len(issuer.readDataSeen) != 0 {
		t.Fatal("issuer observed its own read broadcast")
	}
}

func TestLocalOwnerKillsReadAndFlushes(t *testing.T) {
	mem := newFakeMem()
	mem.words[7] = 1 // stale
	b := New(mem)
	owner := &recSnooper{inhibitRead: true, flushData: 99}
	other := &recSnooper{}
	b.Attach(1, owner)
	b.Attach(2, other)
	requester := attach(b, 0, &Request{Op: OpRead, Addr: 7})

	_, res, _ := b.Tick()
	if !res.Killed {
		t.Fatal("read was not killed by the Local owner")
	}
	if mem.words[7] != 99 {
		t.Fatalf("memory = %d after flush, want 99", mem.words[7])
	}
	// The flush is observed as a bus write by the other snoopers.
	if len(other.writesSeen) != 1 || other.writesSeen[0].Op != OpWrite ||
		other.writesSeen[0].Data != 99 || other.writesSeen[0].Source != 1 {
		t.Fatalf("other snooper saw %+v, want flush write of 99 from source 1", other.writesSeen)
	}
	st := b.Stats()
	if st.KilledReads != 1 || st.FlushWrites != 1 {
		t.Fatalf("stats = %+v, want 1 killed read and 1 flush", st)
	}

	// After flushing, a real cache leaves the Local state, so the retried
	// read (granted via the priority slot) succeeds from updated memory.
	owner.inhibitRead = false
	requester.queue = append(requester.queue, &Request{Op: OpRead, Addr: 7, Retry: true})
	b.PrioritySlot(0)
	_, res2, _ := b.Tick()
	if res2.Killed {
		t.Fatal("retried read was killed again")
	}
	if res2.Data != 99 {
		t.Fatalf("retried read data = %d, want 99", res2.Data)
	}
	if b.Stats().Retries != 1 {
		t.Fatal("retry not counted")
	}
}

func TestPriorityBeatsOrdinaryRequests(t *testing.T) {
	b := New(newFakeMem())
	attach(b, 3, &Request{Op: OpWrite, Addr: 1, Data: 1})
	attach(b, 4, &Request{Op: OpWrite, Addr: 2, Data: 2})
	b.AttachRequester(0, &stubReq{queue: []*Request{{Op: OpRead, Addr: 9, Retry: true}}})
	b.PrioritySlot(0)
	req, _, granted := b.Tick()
	if !granted || req.Source != 0 || req.Op != OpRead {
		t.Fatalf("granted %+v, want the priority retry from source 0", req)
	}
}

func TestDoublePriorityPanics(t *testing.T) {
	b := New(newFakeMem())
	b.AttachRequester(0, &stubReq{})
	b.AttachRequester(1, &stubReq{})
	b.PrioritySlot(0)
	b.PrioritySlot(0) // same holder: fine
	defer func() {
		if recover() == nil {
			t.Fatal("second priority holder did not panic")
		}
	}()
	b.PrioritySlot(1)
}

func TestWithdrawnGrantMovesOnSameCycle(t *testing.T) {
	mem := newFakeMem()
	b := New(mem)
	// Source 0 withdraws; source 1 should be granted in the same cycle.
	attach(b, 0, nil)
	attach(b, 1, &Request{Op: OpWrite, Addr: 2, Data: 5})
	req, _, granted := b.Tick()
	if !granted || req.Source != 1 {
		t.Fatalf("granted %+v, want source 1 after 0 withdrew", req)
	}
	if b.Stats().Withdrawn != 1 {
		t.Fatal("withdrawal not counted")
	}
	if mem.words[2] != 5 {
		t.Fatal("source 1's write lost")
	}
}

func TestAllWithdrawnIsIdle(t *testing.T) {
	b := New(newFakeMem())
	attach(b, 0, nil)
	if _, _, granted := b.Tick(); granted {
		t.Fatal("granted despite withdrawal")
	}
	if b.Stats().IdleCycles != 1 {
		t.Fatal("cycle not counted idle")
	}
}

func TestRoundRobinFairness(t *testing.T) {
	b := New(newFakeMem())
	granted := make(map[int]int)
	reqs := make([]*stubReq, 3)
	for i := 0; i < 3; i++ {
		i := i
		reqs[i] = &stubReq{}
		b.AttachRequester(i, grantFunc(func(bank, banks int) (Request, bool) {
			return Request{Op: OpWrite, Addr: Addr(i), Data: 1}, true
		}))
		b.RequestSlot(i)
	}
	for cycle := 0; cycle < 30; cycle++ {
		req, _, ok := b.Tick()
		if !ok {
			t.Fatal("bus idle while requests pending")
		}
		granted[req.Source]++
		b.RequestSlot(req.Source) // stay hungry
	}
	for s := 0; s < 3; s++ {
		if granted[s] != 10 {
			t.Fatalf("source %d granted %d times in 30 cycles, want 10 (got %v)", s, granted[s], granted)
		}
	}
}

// grantFunc adapts a function to the Requester interface.
type grantFunc func(bank, banks int) (Request, bool)

func (f grantFunc) BusGrant(bank, banks int) (Request, bool) { return f(bank, banks) }

func TestRoundRobinRotatesAfterWinner(t *testing.T) {
	b := New(newFakeMem())
	for _, id := range []int{0, 1, 2} {
		id := id
		b.AttachRequester(id, grantFunc(func(bank, banks int) (Request, bool) {
			return Request{Op: OpWrite, Addr: Addr(id), Data: 1}, true
		}))
	}
	b.RequestSlot(2)
	b.RequestSlot(0)
	req, _, _ := b.Tick() // lastWin starts at -1, so source 0 wins first
	if req.Source != 0 {
		t.Fatalf("first grant to source %d, want 0", req.Source)
	}
	b.RequestSlot(1)
	req, _, _ = b.Tick() // after 0, cyclic order says 1
	if req.Source != 1 {
		t.Fatalf("second grant to source %d, want 1", req.Source)
	}
	req, _, _ = b.Tick()
	if req.Source != 2 {
		t.Fatalf("third grant to source %d, want 2", req.Source)
	}
}

func TestRequestSlotIdempotent(t *testing.T) {
	b := New(newFakeMem())
	b.AttachRequester(0, &stubReq{})
	b.RequestSlot(0)
	b.RequestSlot(0)
	if b.PendingLen() != 1 {
		t.Fatalf("PendingLen = %d after double assert, want 1", b.PendingLen())
	}
	if !b.Slotted(0) {
		t.Fatal("Slotted(0) = false")
	}
	b.CancelSlot(0)
	if b.Slotted(0) || b.PendingLen() != 0 {
		t.Fatal("CancelSlot did not clear the line")
	}
}

func TestWriteUpdatesMemoryAndBroadcasts(t *testing.T) {
	mem := newFakeMem()
	b := New(mem)
	s := &recSnooper{}
	b.Attach(1, s)
	attach(b, 0, &Request{Op: OpWrite, Addr: 3, Data: 77})
	b.Tick()
	if mem.words[3] != 77 {
		t.Fatalf("memory = %d, want 77", mem.words[3])
	}
	if len(s.writesSeen) != 1 || s.writesSeen[0].Data != 77 {
		t.Fatalf("snooper saw %+v", s.writesSeen)
	}
}

func TestInvalidateDoesNotTouchMemory(t *testing.T) {
	mem := newFakeMem()
	mem.words[3] = 5
	b := New(mem)
	s := &recSnooper{}
	b.Attach(1, s)
	attach(b, 0, &Request{Op: OpInv, Addr: 3})
	b.Tick()
	if mem.words[3] != 5 || mem.writes != 0 {
		t.Fatal("invalidate touched memory")
	}
	if len(s.writesSeen) != 1 || s.writesSeen[0].Op != OpInv {
		t.Fatalf("snooper saw %+v, want one BI", s.writesSeen)
	}
}

func TestRMWSuccessOnZero(t *testing.T) {
	mem := newFakeMem()
	b := New(mem)
	s := &recSnooper{}
	b.Attach(1, s)
	attach(b, 0, &Request{Op: OpRMW, Addr: 8, Data: 1})
	_, res, _ := b.Tick()
	if !res.RMWSuccess || res.Data != 0 {
		t.Fatalf("result = %+v, want success with old value 0", res)
	}
	if mem.words[8] != 1 {
		t.Fatalf("memory = %d, want 1 (lock taken)", mem.words[8])
	}
	if len(s.writesSeen) != 1 || s.writesSeen[0].Data != 1 || s.writesSeen[0].Op != OpWrite {
		t.Fatalf("snooper saw %+v", s.writesSeen)
	}
	if b.Stats().RMWSuccess != 1 {
		t.Fatal("RMWSuccess not counted")
	}
}

func TestRMWSuccessWithInvalidateBroadcast(t *testing.T) {
	mem := newFakeMem()
	b := New(mem)
	s := &recSnooper{}
	b.Attach(1, s)
	attach(b, 0, &Request{Op: OpRMW, Addr: 8, Data: 1, SuccessOp: OpInv})
	_, res, _ := b.Tick()
	if !res.RMWSuccess {
		t.Fatal("RMW failed")
	}
	if mem.words[8] != 1 {
		t.Fatal("memory not updated by locked write")
	}
	if len(s.writesSeen) != 1 || s.writesSeen[0].Op != OpInv {
		t.Fatalf("snooper saw %+v, want one BI", s.writesSeen)
	}
}

func TestRMWFailureOnNonzero(t *testing.T) {
	mem := newFakeMem()
	mem.words[8] = 1 // already locked
	b := New(mem)
	s := &recSnooper{}
	b.Attach(1, s)
	attach(b, 0, &Request{Op: OpRMW, Addr: 8, Data: 1})
	_, res, _ := b.Tick()
	if res.RMWSuccess {
		t.Fatal("RMW succeeded on a held lock")
	}
	if res.Data != 1 {
		t.Fatalf("old value = %d, want 1", res.Data)
	}
	if len(s.writesSeen) != 0 || len(s.readDataSeen) != 0 {
		t.Fatal("failed RMW broadcast something")
	}
	if b.Stats().RMWFailure != 1 {
		t.Fatal("RMWFailure not counted")
	}
}

func TestRMWDirtyOwnerFlushes(t *testing.T) {
	mem := newFakeMem()
	mem.words[8] = 1 // stale: the owner released the lock locally
	b := New(mem)
	owner := &recSnooper{flushRMW: true, flushData: 0}
	b.Attach(1, owner)
	attach(b, 0, &Request{Op: OpRMW, Addr: 8, Data: 1})
	_, res, _ := b.Tick()
	if !res.RMWSuccess {
		t.Fatal("RMW failed even though the dirty owner held 0")
	}
	if res.Data != 0 {
		t.Fatalf("locked read observed %d, want flushed 0", res.Data)
	}
	if mem.words[8] != 1 {
		t.Fatalf("memory = %d after flush+set, want 1", mem.words[8])
	}
	if b.Stats().RMWFlushes != 1 {
		t.Fatal("RMWFlushes not counted")
	}
}

func TestMemLatencyHoldsBus(t *testing.T) {
	b := New(newFakeMem())
	b.MemLatency = 2
	attach(b, 0, &Request{Op: OpWrite, Addr: 1, Data: 1})
	attach(b, 1, &Request{Op: OpWrite, Addr: 2, Data: 2})
	if _, _, ok := b.Tick(); !ok {
		t.Fatal("first transaction not granted")
	}
	for i := 0; i < 2; i++ {
		if _, _, ok := b.Tick(); ok {
			t.Fatalf("transaction granted during hold cycle %d", i)
		}
	}
	if req, _, ok := b.Tick(); !ok || req.Source != 1 {
		t.Fatal("second transaction not granted after hold")
	}
	st := b.Stats()
	if st.BusyCycles != 4 {
		t.Fatalf("busy cycles = %d, want 4 (2 grants + 2 holds)", st.BusyCycles)
	}
}

func TestBankEnforcement(t *testing.T) {
	b := New(newFakeMem())
	b.Bank, b.Banks = 0, 2
	// Supplying an odd address on bank 0 is a driver bug.
	b.AttachRequester(0, grantFunc(func(bank, banks int) (Request, bool) {
		return Request{Op: OpWrite, Addr: 3, Data: 1}, true
	}))
	b.RequestSlot(0)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-bank request did not panic")
		}
	}()
	b.Tick()
}

func TestAttachValidation(t *testing.T) {
	b := New(newFakeMem())
	b.Attach(0, &recSnooper{})
	b.Attach(129, &keeper{})
	b.AttachRequester(1, &stubReq{})
	for _, tc := range []struct {
		name, want string
		f          func()
	}{
		{"duplicate snooper", "bus: duplicate snooper id 0", func() { b.Attach(0, &recSnooper{}) }},
		{"duplicate keeper", "bus: duplicate snooper id 129", func() { b.Attach(129, &recSnooper{}) }},
		{"negative snooper id", "bus: negative snooper id -1", func() { b.Attach(-1, &recSnooper{}) }},
		{"nil snooper", "bus: nil snooper", func() { b.Attach(1, nil) }},
		{"nil requester", "bus: nil requester", func() { b.AttachRequester(2, nil) }},
		{"negative requester id", "bus: negative requester id -1", func() { b.AttachRequester(-1, &stubReq{}) }},
		{"duplicate requester", "bus: duplicate requester id 1", func() { b.AttachRequester(1, &stubReq{}) }},
		{"slot for unattached source", "bus: slot requested for unattached source 9", func() { b.RequestSlot(9) }},
		{"priority for unattached source", "bus: priority slot for unattached source 9", func() { b.PrioritySlot(9) }},
	} {
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("%s: panic %v, want %q", tc.name, got, tc.want)
				}
			}()
			tc.f()
		}()
	}
}

func TestStatsAccessors(t *testing.T) {
	mem := newFakeMem()
	b := New(mem)
	attach(b, 0, &Request{Op: OpWrite, Addr: 1, Data: 1})
	b.Tick()
	b.Tick() // idle
	st := b.Stats()
	if st.Transactions() != 1 || st.Writes() != 1 || st.Reads() != 0 ||
		st.Invalidates() != 0 || st.RMWs() != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.Utilization(); got != 0.5 {
		t.Fatalf("Utilization() = %g, want 0.5", got)
	}
	var empty Stats
	if empty.Utilization() != 0 {
		t.Fatal("empty Utilization() != 0")
	}
}

func TestTraceCallback(t *testing.T) {
	b := New(newFakeMem())
	var traced []Request
	b.Trace = func(cycle uint64, r Request, res Result) { traced = append(traced, r) }
	attach(b, 0, &Request{Op: OpWrite, Addr: 1, Data: 1})
	b.Tick()
	if len(traced) != 1 || traced[0].Op != OpWrite {
		t.Fatalf("trace = %+v", traced)
	}
}

func TestNilMemoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil) did not panic")
		}
	}()
	New(nil)
}

func TestUnknownOpPanics(t *testing.T) {
	b := New(newFakeMem())
	attach(b, 0, &Request{Op: Op(9), Addr: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("unknown op did not panic")
		}
	}()
	b.Tick()
}

// stallMem refuses accesses until armed, recording Ready calls.
type stallMem struct {
	fakeMem
	ready      bool
	readyCalls int
	rmwOld     Word
	rmwCalls   int
}

func newStallMem() *stallMem {
	return &stallMem{fakeMem: fakeMem{words: make(map[Addr]Word)}}
}

func (m *stallMem) Ready(r Request) bool {
	m.readyCalls++
	return m.ready
}

func TestStallableMemoryDefersTransaction(t *testing.T) {
	mem := newStallMem()
	b := New(mem)
	attach(b, 0, &Request{Op: OpWrite, Addr: 1, Data: 9}, &Request{Op: OpWrite, Addr: 1, Data: 9})
	if _, _, granted := b.Tick(); granted {
		t.Fatal("not-ready transaction executed")
	}
	if mem.writes != 0 {
		t.Fatal("memory written while stalled")
	}
	if b.Stats().Stalled != 1 {
		t.Fatal("stall not counted")
	}
	// The slot stays asserted; once ready, the transaction executes.
	if !b.Slotted(0) {
		t.Fatal("stalled source lost its slot")
	}
	mem.ready = true
	if _, _, granted := b.Tick(); !granted {
		t.Fatal("ready transaction not granted")
	}
	if mem.words[1] != 9 {
		t.Fatal("write lost")
	}
}

func TestStallSkipsToReadyRequester(t *testing.T) {
	// Source 0 stalls (a "miss"), source 1's transaction is ready: the
	// bus must not idle.
	mem := newStallMem()
	b := New(mem)
	b.AttachRequester(0, grantFunc(func(bank, banks int) (Request, bool) {
		return Request{Op: OpRead, Addr: 1}, true
	}))
	b.AttachRequester(1, grantFunc(func(bank, banks int) (Request, bool) {
		return Request{Op: OpInv, Addr: 2}, true // OpInv never consults memory
	}))
	b.RequestSlot(0)
	b.RequestSlot(1)
	req, _, granted := b.Tick()
	if !granted || req.Source != 1 {
		t.Fatalf("granted %+v, want source 1's invalidate", req)
	}
	if !b.Slotted(0) {
		t.Fatal("stalled source 0 lost its slot")
	}
}

// dropFirst is an Injector that drops the first granted transaction.
type dropFirst struct{ dropped bool }

func (d *dropFirst) WedgeArbitration(uint64) bool { return false }

func (d *dropFirst) OnGrant(uint64, Request) Verdict {
	if d.dropped {
		return VerdictPass
	}
	d.dropped = true
	return VerdictDrop
}

// TestDroppedGrantReasserts: a dropped transaction costs its issuer one
// cycle, not its request line — the bus re-asserts the line as for a
// stalled grant, and the next cycle grants the same source again.
func TestDroppedGrantReasserts(t *testing.T) {
	mem := newFakeMem()
	b := New(mem)
	b.SetInjector(&dropFirst{})
	w := &Request{Op: OpWrite, Addr: 1, Data: 9}
	r := attach(b, 0, w, w)
	if _, _, granted := b.Tick(); granted || mem.writes != 0 || b.Stats().FaultDrops != 1 {
		t.Fatalf("drop: granted = %v, memory writes %d, stats %+v", granted, mem.writes, b.Stats())
	}
	if !b.Slotted(0) {
		t.Fatal("dropped source lost its request line")
	}
	req, _, granted := b.Tick()
	if !granted || req.Source != 0 || mem.words[1] != 9 || r.grants != 2 {
		t.Fatalf("after the drop: granted = %v, %+v, memory %d, %d grants", granted, req, mem.words[1], r.grants)
	}
}

func (m *stallMem) RMW(a Addr, set Word) Word {
	m.rmwCalls++
	old := m.rmwOld
	if old == 0 {
		m.words[a] = set
	}
	return old
}

func TestDelegatedRMW(t *testing.T) {
	mem := newStallMem()
	mem.ready = true
	b := New(mem)
	s := &recSnooper{}
	b.Attach(1, s)
	attach(b, 0, &Request{Op: OpRMW, Addr: 5, Data: 7})
	_, res, _ := b.Tick()
	if mem.rmwCalls != 1 {
		t.Fatal("RMW not delegated to the memory port")
	}
	if !res.RMWSuccess || res.Data != 0 {
		t.Fatalf("result = %+v", res)
	}
	if mem.words[5] != 7 {
		t.Fatal("delegated set lost")
	}
	if len(s.writesSeen) != 1 {
		t.Fatal("success write not broadcast")
	}
	// A failing delegated RMW broadcasts nothing.
	mem.rmwOld = 1
	attachID2 := &stubReq{queue: []*Request{{Op: OpRMW, Addr: 5, Data: 7}}}
	b.AttachRequester(2, attachID2)
	b.RequestSlot(2)
	_, res, _ = b.Tick()
	if res.RMWSuccess || res.Data != 1 {
		t.Fatalf("failing RMW result = %+v", res)
	}
	if len(s.writesSeen) != 1 {
		t.Fatal("failed RMW broadcast a write")
	}
}

func TestLockRegister(t *testing.T) {
	mem := newFakeMem()
	b := New(mem)
	if h, _ := b.Locked(); h != -1 {
		t.Fatal("fresh bus holds a lock")
	}
	// A locked read takes the lock.
	holder := attach(b, 0, &Request{Op: OpRead, Addr: 9, Lock: true})
	b.Tick()
	if h, a := b.Locked(); h != 0 || a != 9 {
		t.Fatalf("lock = (%d, %d), want (0, 9)", h, a)
	}
	// Another source's write to the locked word stalls; its slot stays.
	writer := attach(b, 1, &Request{Op: OpWrite, Addr: 9, Data: 5})
	if _, _, granted := b.Tick(); granted {
		t.Fatal("write to locked word executed")
	}
	if !b.Slotted(1) {
		t.Fatal("stalled writer lost its slot")
	}
	// A second locker stalls too (one lock register), as does a plain
	// read of the locked word.
	attach(b, 2, &Request{Op: OpRead, Addr: 42, Lock: true})
	attach(b, 3, &Request{Op: OpRead, Addr: 9})
	if _, _, granted := b.Tick(); granted {
		t.Fatal("transaction executed while everything should stall")
	}
	// The holder's unlocking write passes and releases the register;
	// refill the stalled requesters' queues (their earlier grants
	// consumed entries).
	holder.queue = append(holder.queue, &Request{Op: OpWrite, Addr: 9, Data: 7, Unlock: true})
	b.RequestSlot(0)
	req, _, granted := b.Tick()
	if !granted || req.Source != 0 || !req.Unlock {
		t.Fatalf("granted %+v, want the holder's unlock", req)
	}
	if h, _ := b.Locked(); h != -1 {
		t.Fatal("unlock did not release")
	}
	if mem.words[9] != 7 {
		t.Fatal("unlock write lost")
	}
	// The stalled writer proceeds now. (The stub requester consumed its
	// queued request during the stalled grant attempts and withdrew, so
	// re-arm both queue and slot.)
	writer.queue = append(writer.queue, &Request{Op: OpWrite, Addr: 9, Data: 5})
	b.RequestSlot(1)
	var sawWriter bool
	for i := 0; i < 4; i++ {
		if req, _, ok := b.Tick(); ok && req.Source == 1 {
			sawWriter = true
		}
	}
	if !sawWriter {
		t.Fatal("stalled writer never granted after unlock")
	}
	if mem.words[9] != 5 {
		t.Fatal("writer's value lost")
	}
}

func TestUnlockByNonHolderPanics(t *testing.T) {
	b := New(newFakeMem())
	attach(b, 0, &Request{Op: OpRead, Addr: 9, Lock: true})
	b.Tick()
	attach(b, 1, &Request{Op: OpWrite, Addr: 8, Data: 1, Unlock: true})
	defer func() {
		if recover() == nil {
			t.Fatal("foreign unlock did not panic")
		}
	}()
	// Address 8 is not the locked word, so the write itself is allowed —
	// but its Unlock flag is a protocol violation.
	b.Tick()
}

func TestKilledLockedReadDoesNotTakeLock(t *testing.T) {
	mem := newFakeMem()
	b := New(mem)
	owner := &recSnooper{inhibitRead: true, flushData: 3}
	b.Attach(5, owner)
	attach(b, 0, &Request{Op: OpRead, Addr: 9, Lock: true})
	_, res, _ := b.Tick()
	if !res.Killed {
		t.Fatal("read not killed")
	}
	if h, _ := b.Locked(); h != -1 {
		t.Fatal("killed locked read took the lock")
	}
}

// TestRegisterOrderIndependence pins grant-order determinism against the
// registration order of requesters: arbitration is a function of slot
// assertion order and round-robin rotation only, never of the order
// AttachRequester was called in. With the historical map registry this
// held because grant order was recomputed from the slots; the
// slice-backed registry pins it explicitly.
func TestRegisterOrderIndependence(t *testing.T) {
	run := func(ids []int) []int {
		b := New(newFakeMem())
		for _, id := range ids {
			// Each source supplies a stream of writes tagged with its id.
			b.AttachRequester(id, &stubReq{queue: []*Request{
				{Op: OpWrite, Addr: Addr(id), Data: Word(id)},
				{Op: OpWrite, Addr: Addr(id), Data: Word(id)},
			}})
		}
		// Slots asserted in fixed ascending order regardless of the
		// registration order.
		for id := 0; id < len(ids); id++ {
			b.RequestSlot(id)
		}
		var trace []int
		for i := 0; i < 2*len(ids); i++ {
			req, _, granted := b.Tick()
			if !granted {
				break
			}
			trace = append(trace, req.Source)
			b.RequestSlot(req.Source)
		}
		return trace
	}

	want := run([]int{0, 1, 2, 3})
	if len(want) == 0 {
		t.Fatal("no transactions granted")
	}
	for _, order := range [][]int{{3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}} {
		got := run(order)
		if len(got) != len(want) {
			t.Fatalf("registration order %v: %d grants, want %d", order, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("registration order %v: arbitration trace %v, want %v", order, got, want)
			}
		}
	}
}

// TestSetTickScratchReuse pins that Set.Tick reuses its grant buffer
// (no per-cycle allocation) while still returning the cycle's grants.
func TestSetTickScratchReuse(t *testing.T) {
	mem := newFakeMem()
	s := NewSet(mem, 1)
	s.AttachRequester(0, &stubReq{queue: []*Request{
		{Op: OpWrite, Addr: 1, Data: 10},
		{Op: OpWrite, Addr: 2, Data: 20},
	}})
	s.RequestSlot(1, 0)
	first := s.Tick()
	if len(first) != 1 || first[0].Req.Data != 10 {
		t.Fatalf("first Tick grants = %+v", first)
	}
	s.RequestSlot(2, 0)
	second := s.Tick()
	if len(second) != 1 || second[0].Req.Data != 20 {
		t.Fatalf("second Tick grants = %+v", second)
	}
	// The scratch is reused: the first slice now aliases the second
	// cycle's contents, which is exactly why callers must not retain it.
	if &first[0] != &second[0] {
		t.Fatal("Set.Tick allocated a fresh grant buffer; expected reuse")
	}
}
