package coherence

import "testing"

func TestIllinoisReadMissTarget(t *testing.T) {
	p := New(KindIllinois)
	if got := p.ReadMissTarget(false); got != Reserved {
		t.Errorf("quiet shared line -> %v, want Exclusive (Reserved)", got)
	}
	if got := p.ReadMissTarget(true); got != Valid {
		t.Errorf("asserted shared line -> %v, want Shared (Valid)", got)
	}
}

// TestIllinoisSilentUpgrade is the protocol's defining transition: writing
// a clean-exclusive line takes no bus transaction.
func TestIllinoisSilentUpgrade(t *testing.T) {
	p := New(KindIllinois)
	out := p.OnProc(Reserved, 0, EvWrite)
	if out.Action != ActNone || out.Next != DirtyState || out.Dirty != DirtySet {
		t.Fatalf("E+write = %+v, want silent upgrade to Modified", out)
	}
	// Contrast with Goodman, which writes through from its Reserved too —
	// but only reaches Reserved via a bus write; Illinois reaches
	// Exclusive on a quiet read miss.
	if g := New(KindGoodman).OnProc(Valid, 0, EvWrite); g.Action != ActWrite {
		t.Fatalf("goodman shared write = %+v", g)
	}
}

func TestIllinoisSnoopMatrix(t *testing.T) {
	p := New(KindIllinois)
	cases := []struct {
		s       State
		ev      SnoopEvent
		next    State
		inhibit bool
	}{
		{Valid, SnBusRead, Valid, false},
		{Valid, SnBusWrite, Invalid, false},
		{Reserved, SnBusRead, Valid, false}, // exclusivity lost, no flush
		{Reserved, SnBusWrite, Invalid, false},
		{DirtyState, SnBusRead, Valid, true}, // supply and demote
		{DirtyState, SnBusWrite, Invalid, false},
		{Invalid, SnReadData, Invalid, false}, // event-broadcast only
	}
	for _, c := range cases {
		got := p.OnSnoop(c.s, 0, c.s == DirtyState, c.ev)
		if got.Next != c.next || got.Inhibit != c.inhibit {
			t.Errorf("OnSnoop(%v, %v) = (%v, %v), want (%v, %v)",
				c.s, c.ev, got.Next, got.Inhibit, c.next, c.inhibit)
		}
		if got.TakeData {
			t.Errorf("illinois %v+%v took broadcast data", c.s, c.ev)
		}
	}
}

func TestIllinoisRMW(t *testing.T) {
	p := New(KindIllinois)
	if flush, next, _ := p.RMWFlush(DirtyState, true); !flush || next != Reserved {
		t.Error("Modified must flush for a locked read, leaving clean-exclusive")
	}
	if flush, _, _ := p.RMWFlush(Reserved, false); flush {
		t.Error("Exclusive flushed (memory is current)")
	}
	if !p.LocalRMW(Reserved) || !p.LocalRMW(DirtyState) || p.LocalRMW(Valid) {
		t.Error("LocalRMW states wrong")
	}
	if next, _, bc := p.RMWSuccess(Valid, 0); next != Reserved || bc != ActWrite {
		t.Error("RMW success wrong")
	}
}

func TestIllinoisEvictionAndTransparency(t *testing.T) {
	p := New(KindIllinois)
	if !p.WritebackOnEvict(DirtyState, true) || p.WritebackOnEvict(Reserved, false) || p.WritebackOnEvict(Valid, false) {
		t.Error("writeback policy wrong")
	}
	for _, c := range []Class{ClassUnknown, ClassCode, ClassLocal, ClassShared} {
		if !p.Cachable(c, EvRead) {
			t.Errorf("class %v not cachable", c)
		}
	}
	if p.Name() != "illinois" || len(p.States()) != 4 {
		t.Error("identity wrong")
	}
}

func TestIllinoisForeignStatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("foreign state did not panic")
		}
	}()
	New(KindIllinois).OnProc(Local, 0, EvRead)
}
