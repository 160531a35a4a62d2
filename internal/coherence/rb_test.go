package coherence

import "testing"

// TestRBTransitionDiagram encodes Figure 3-1 transition by transition:
// every (state, CPU event) pair and every (state, bus event) pair, with the
// modifier actions (1 = generate BW, 2 = interrupt BR and supply data,
// 3 = generate BR).
func TestRBTransitionDiagram(t *testing.T) {
	p := New(KindRB)

	procCases := []struct {
		s      State
		e      ProcEvent
		next   State
		action Action
	}{
		// Invalid: CR -> R with BR (modifier 3); CW -> L with BW (modifier 1).
		{Invalid, EvRead, Readable, ActRead},
		{Invalid, EvWrite, Local, ActWrite},
		// Readable: CR hits; CW -> L with BW.
		{Readable, EvRead, Readable, ActNone},
		{Readable, EvWrite, Local, ActWrite},
		// Local: both hit with no bus activity.
		{Local, EvRead, Local, ActNone},
		{Local, EvWrite, Local, ActNone},
	}
	for _, c := range procCases {
		got := p.OnProc(c.s, 0, c.e)
		if got.Next != c.next || got.Action != c.action {
			t.Errorf("OnProc(%v, %v) = (%v, %v), want (%v, %v)",
				c.s, c.e, got.Next, got.Action, c.next, c.action)
		}
	}

	snoopCases := []struct {
		s       State
		ev      SnoopEvent
		next    State
		inhibit bool
		take    bool
	}{
		// Invalid: BW has no effect; read data is broadcast-taken -> R.
		{Invalid, SnBusRead, Invalid, false, false},
		{Invalid, SnBusWrite, Invalid, false, false},
		{Invalid, SnReadData, Readable, false, true},
		// Readable: BR no effect; BW invalidates.
		{Readable, SnBusRead, Readable, false, false},
		{Readable, SnBusWrite, Invalid, false, false},
		{Readable, SnReadData, Readable, false, false},
		// Local: BR is interrupted and serviced (modifier 2), -> R;
		// BW invalidates.
		{Local, SnBusRead, Readable, true, false},
		{Local, SnBusWrite, Invalid, false, false},
		{Local, SnReadData, Local, false, false},
	}
	for _, c := range snoopCases {
		got := p.OnSnoop(c.s, 0, true, c.ev)
		if got.Next != c.next || got.Inhibit != c.inhibit || got.TakeData != c.take {
			t.Errorf("OnSnoop(%v, %v) = (%v, inhibit=%v, take=%v), want (%v, %v, %v)",
				c.s, c.ev, got.Next, got.Inhibit, got.TakeData, c.next, c.inhibit, c.take)
		}
	}
}

// TestRBWriteIsWriteThrough verifies that every transition into Local via a
// bus write leaves the line clean (memory just got the value), while a
// local write in L dirties it — the invariant behind the RMW flush rule.
func TestRBWriteIsWriteThrough(t *testing.T) {
	p := New(KindRB)
	for _, s := range []State{Invalid, Readable} {
		out := p.OnProc(s, 0, EvWrite)
		if out.Dirty != DirtyClear {
			t.Errorf("write from %v should leave the line clean, got %v", s, out.Dirty)
		}
	}
	if out := p.OnProc(Local, 0, EvWrite); out.Dirty != DirtySet {
		t.Errorf("local write in L should dirty the line, got %v", out.Dirty)
	}
}

// TestRBLocalFlushClearsDirty: after servicing a bus read, the former owner
// is Readable and clean.
func TestRBLocalFlushClearsDirty(t *testing.T) {
	out := New(KindRB).OnSnoop(Local, 0, true, SnBusRead)
	if !out.Inhibit || out.Next != Readable || out.Dirty != DirtyClear {
		t.Fatalf("L+BR snoop = %+v, want inhibit -> Readable clean", out)
	}
}

func TestRBRMWFlushOnlyWhenDirty(t *testing.T) {
	p := New(KindRB)
	if flush, next, d := p.RMWFlush(Local, true); !flush || next != Local || d != DirtyClear {
		t.Errorf("dirty Local must flush for a locked read and stay Local; got flush=%v next=%v dirty=%v", flush, next, d)
	}
	if flush, _, _ := p.RMWFlush(Local, false); flush {
		t.Error("clean Local must not flush for a locked read (Figure 6-1 keeps P2 in L)")
	}
	for _, s := range []State{Invalid, Readable} {
		if flush, _, _ := p.RMWFlush(s, true); flush {
			t.Errorf("state %v must never flush", s)
		}
	}
}

func TestRBRMWSuccessMakesLocal(t *testing.T) {
	next, _, bc := New(KindRB).RMWSuccess(Readable, 0)
	if next != Local || bc != ActWrite {
		t.Fatalf("RMW success = (%v, %v), want (Local, BW)", next, bc)
	}
}

func TestRBEvictionPolicy(t *testing.T) {
	p := New(KindRB)
	if !p.WritebackOnEvict(Local, false) {
		t.Error("Local lines must be written back on eviction, even clean")
	}
	for _, s := range []State{Invalid, Readable} {
		if p.WritebackOnEvict(s, true) {
			t.Errorf("state %v must not be written back", s)
		}
	}
}

func TestRBTransparent(t *testing.T) {
	p := New(KindRB)
	for _, c := range []Class{ClassUnknown, ClassCode, ClassLocal, ClassShared} {
		for _, e := range []ProcEvent{EvRead, EvWrite} {
			if !p.Cachable(c, e) {
				t.Errorf("RB must cache %v %v references (transparency)", c, e)
			}
		}
	}
}

func TestRBStatesAndName(t *testing.T) {
	p := New(KindRB)
	if p.Name() != "rb" {
		t.Errorf("Name() = %q", p.Name())
	}
	want := []State{Invalid, Readable, Local}
	got := p.States()
	if len(got) != len(want) {
		t.Fatalf("States() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("States() = %v, want %v", got, want)
		}
	}
}

func TestRBForeignStatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("OnProc from a Goodman state did not panic")
		}
	}()
	New(KindRB).OnProc(Reserved, 0, EvRead)
}

func TestRBDirtyEvictVariant(t *testing.T) {
	p := New(KindRBDirty)
	if p.Name() != "rb-dirty" {
		t.Fatalf("Name() = %q", p.Name())
	}
	// Clean Local lines drop silently; dirty ones write back.
	if p.WritebackOnEvict(Local, false) {
		t.Error("clean Local written back under rb-dirty")
	}
	if !p.WritebackOnEvict(Local, true) {
		t.Error("dirty Local not written back")
	}
	// Every other behavior is inherited from RB verbatim.
	if out := p.OnProc(Readable, 0, EvWrite); out.Next != Local || out.Action != ActWrite {
		t.Errorf("inherited transition diverged: %+v", out)
	}
}

// TestRBShimForwards: the RB literal benchmark/core.go spells answers
// every hook exactly as the rb table does.
func TestRBShimForwards(t *testing.T) {
	if got, want := oracleDump("rb", RB{}), oracleDump("rb", New(KindRB)); got != want {
		t.Errorf("RB{} diverges from New(KindRB):\n%s\nwant:\n%s", got, want)
	}
	if (RB{}).ReadMissTarget(false) != Readable || (RB{}).ReadMissTarget(true) != Readable {
		t.Error("RB{}.ReadMissTarget is not the Invalid --CR--> target")
	}
}
