package coherence

import "testing"

func TestGoodmanWriteOnceSequence(t *testing.T) {
	p := New(KindGoodman)
	// Read miss -> Valid.
	out := p.OnProc(Invalid, 0, EvRead)
	if out.Next != Valid || out.Action != ActRead {
		t.Fatalf("read miss = %+v", out)
	}
	// First write: write through once -> Reserved.
	out = p.OnProc(Valid, 0, EvWrite)
	if out.Next != Reserved || out.Action != ActWrite || out.Dirty != DirtyClear {
		t.Fatalf("first write = %+v, want write-through to Reserved", out)
	}
	// Second write: purely local -> Dirty.
	out = p.OnProc(Reserved, 0, EvWrite)
	if out.Next != DirtyState || out.Action != ActNone || out.Dirty != DirtySet {
		t.Fatalf("second write = %+v, want local to Dirty", out)
	}
	// Subsequent writes stay Dirty with no bus activity.
	out = p.OnProc(DirtyState, 0, EvWrite)
	if out.Next != DirtyState || out.Action != ActNone {
		t.Fatalf("third write = %+v", out)
	}
}

func TestGoodmanWriteMissIsReadThenWrite(t *testing.T) {
	out := New(KindGoodman).OnProc(Invalid, 0, EvWrite)
	if out.Next != Reserved || out.Action != ActReadThenWrite {
		t.Fatalf("write miss = %+v, want BR+BW to Reserved", out)
	}
}

// TestGoodmanIsEventBroadcastOnly captures the property the paper improves
// on: write-once caches never gain data from observed transactions.
func TestGoodmanIsEventBroadcastOnly(t *testing.T) {
	p := New(KindGoodman)
	for _, s := range p.States() {
		for _, ev := range []SnoopEvent{SnBusRead, SnBusWrite, SnBusInv, SnReadData} {
			if out := p.OnSnoop(s, 0, s == DirtyState, ev); out.TakeData {
				t.Errorf("goodman %v+%v took broadcast data", s, ev)
			}
		}
	}
	// An Invalid copy stays Invalid even when the data flies by.
	if out := p.OnSnoop(Invalid, 0, false, SnReadData); out.Next != Invalid {
		t.Error("Invalid was refreshed by broadcast read data")
	}
}

func TestGoodmanSnoopDemotions(t *testing.T) {
	p := New(KindGoodman)
	// Reserved loses exclusivity on another's read.
	if out := p.OnSnoop(Reserved, 0, false, SnBusRead); out.Next != Valid || out.Inhibit {
		t.Errorf("Reserved+BR = %+v, want demotion to Valid without inhibit", out)
	}
	// Dirty must service the read.
	if out := p.OnSnoop(DirtyState, 0, true, SnBusRead); out.Next != Valid || !out.Inhibit {
		t.Errorf("Dirty+BR = %+v, want inhibit and demotion to Valid", out)
	}
	// Writes invalidate every holder.
	for _, s := range []State{Valid, Reserved, DirtyState} {
		if out := p.OnSnoop(s, 0, s == DirtyState, SnBusWrite); out.Next != Invalid {
			t.Errorf("%v+BW -> %v, want Invalid", s, out.Next)
		}
	}
}

func TestGoodmanRMW(t *testing.T) {
	p := New(KindGoodman)
	if flush, next, _ := p.RMWFlush(DirtyState, true); !flush || next != Reserved {
		t.Error("Dirty must flush for a locked read and become Reserved")
	}
	if flush, _, _ := p.RMWFlush(Reserved, false); flush {
		t.Error("Reserved flushed (memory is current)")
	}
	if next, _, bc := p.RMWSuccess(Valid, 0); next != Reserved || bc != ActWrite {
		t.Error("RMW success should reserve the line via a write-through")
	}
	if !p.WritebackOnEvict(DirtyState, true) || p.WritebackOnEvict(Reserved, false) {
		t.Error("only Dirty lines write back on eviction")
	}
}

func TestWriteThroughBehavior(t *testing.T) {
	p := New(KindWriteThrough)
	if out := p.OnProc(Invalid, 0, EvRead); out.Next != Valid || out.Action != ActRead {
		t.Fatalf("read miss = %+v", out)
	}
	// Write miss: no allocate.
	if out := p.OnProc(Invalid, 0, EvWrite); out.Next != Invalid || out.Action != ActWrite || !out.NoAllocate {
		t.Fatalf("write miss = %+v, want no-allocate write-through", out)
	}
	// Every write hit goes to the bus.
	if out := p.OnProc(Valid, 0, EvWrite); out.Action != ActWrite || out.Next != Valid {
		t.Fatalf("write hit = %+v", out)
	}
	// Observed writes invalidate.
	if out := p.OnSnoop(Valid, 0, false, SnBusWrite); out.Next != Invalid {
		t.Fatal("observed write did not invalidate")
	}
	// Nothing is ever dirty.
	if flush, _, _ := p.RMWFlush(Valid, false); flush {
		t.Fatal("write-through flushed")
	}
	if p.WritebackOnEvict(Valid, false) {
		t.Fatal("write-through wrote back")
	}
}

func TestCmStarClassPolicy(t *testing.T) {
	p := New(KindCmStar)
	if !p.Cachable(ClassCode, EvRead) || !p.Cachable(ClassLocal, EvRead) {
		t.Error("code and local data must be cachable")
	}
	if p.Cachable(ClassShared, EvRead) || p.Cachable(ClassShared, EvWrite) {
		t.Error("shared data must not be cachable (Table 1-1 emulation)")
	}
	if p.Cachable(ClassUnknown, EvRead) {
		t.Error("unclassified data must bypass the Cm* cache")
	}
	// Local writes are write-through even on a hit (counted as misses in
	// Table 1-1).
	if out := p.OnProc(Valid, 0, EvWrite); out.Action != ActWrite {
		t.Error("local write hit did not write through")
	}
	// Snooping is inert.
	for _, s := range p.States() {
		for _, ev := range []SnoopEvent{SnBusRead, SnBusWrite, SnBusInv, SnReadData} {
			out := p.OnSnoop(s, 0, false, ev)
			if out.Next != s || out.Inhibit || out.TakeData {
				t.Errorf("cmstar snoop %v+%v reacted: %+v", s, ev, out)
			}
		}
	}
}

func TestNoCacheBypassesEverything(t *testing.T) {
	p := New(KindNoCache)
	for _, c := range []Class{ClassUnknown, ClassCode, ClassLocal, ClassShared} {
		if p.Cachable(c, EvRead) {
			t.Errorf("class %v cachable under nocache", c)
		}
	}
	if out := p.OnProc(Invalid, 0, EvRead); out.Action != ActRead || !out.NoAllocate {
		t.Fatalf("read = %+v", out)
	}
	if out := p.OnProc(Invalid, 0, EvWrite); out.Action != ActWrite || !out.NoAllocate {
		t.Fatalf("write = %+v", out)
	}
}

func TestRegistry(t *testing.T) {
	for _, k := range Kinds() {
		p := New(k)
		if p.Name() != k.String() {
			t.Errorf("New(%v).Name() = %q, want %q", k, p.Name(), k.String())
		}
		byName, err := ByName(k.String())
		if err != nil {
			t.Errorf("ByName(%q): %v", k.String(), err)
			continue
		}
		if byName.Name() != p.Name() {
			t.Errorf("ByName(%q) resolved to %q", k.String(), byName.Name())
		}
	}
	if _, err := ByName("mesi"); err == nil {
		t.Error("ByName of unknown protocol did not error")
	}
}

func TestStateStrings(t *testing.T) {
	letters := map[State]string{
		Invalid: "I", Readable: "R", Local: "L", FirstWrite: "F",
		NotPresent: "NP", Valid: "V", Reserved: "Rv", DirtyState: "D",
	}
	names := map[State]string{
		Invalid: "Invalid", Readable: "Readable", Local: "Local", FirstWrite: "FirstWrite",
		NotPresent: "NotPresent", Valid: "Valid", Reserved: "Reserved", DirtyState: "Dirty",
	}
	for s, want := range letters {
		if got := s.Letter(); got != want {
			t.Errorf("%v.Letter() = %q, want %q", s, got, want)
		}
		if got := s.String(); got != names[s] {
			t.Errorf("%s.String() = %q, want %q", want, got, names[s])
		}
	}
	if State(200).Letter() == "" || State(200).String() == "" {
		t.Error("out-of-range state has empty representation")
	}
}

func TestEventAndActionStrings(t *testing.T) {
	if EvRead.String() != "CR" || EvWrite.String() != "CW" {
		t.Error("ProcEvent strings diverge from the figures' legend")
	}
	if ActRead.String() != "BR" || ActWrite.String() != "BW" || ActInv.String() != "BI" {
		t.Error("Action strings diverge from the figures' legend")
	}
	if ActNone.String() != "-" || ActReadThenWrite.String() != "BR+BW" {
		t.Error("auxiliary Action strings wrong")
	}
	if SnBusRead.String() != "BR" || SnReadData.String() != "BRdata" {
		t.Error("SnoopEvent strings wrong")
	}
	for _, c := range []Class{ClassUnknown, ClassCode, ClassLocal, ClassShared} {
		if c.String() == "" {
			t.Errorf("class %d has empty String()", c)
		}
	}
}

// TestProtocolsArePure: calling the same transition twice yields identical
// outcomes — the property the model checker relies on.
func TestProtocolsArePure(t *testing.T) {
	for _, k := range Kinds() {
		p := New(k)
		for _, s := range p.States() {
			for _, e := range []ProcEvent{EvRead, EvWrite} {
				a := p.OnProc(s, 1, e)
				b := p.OnProc(s, 1, e)
				if a != b {
					t.Errorf("%v: OnProc(%v,%v) not deterministic", k, s, e)
				}
			}
			for _, ev := range []SnoopEvent{SnBusRead, SnBusWrite, SnBusInv, SnReadData} {
				a := p.OnSnoop(s, 1, true, ev)
				b := p.OnSnoop(s, 1, true, ev)
				if a != b {
					t.Errorf("%v: OnSnoop(%v,%v) not deterministic", k, s, ev)
				}
			}
		}
	}
}

// TestOnlyOwnersInhibit: across all protocols, only states that can hold a
// value newer than memory inhibit bus reads.
func TestOnlyOwnersInhibit(t *testing.T) {
	ownerStates := map[string]map[State]bool{
		"rb":           {Local: true},
		"rwb":          {Local: true},
		"goodman":      {DirtyState: true},
		"writethrough": {},
		"cmstar":       {},
		"nocache":      {},
		"illinois":     {DirtyState: true},
		"rb-dirty":     {Local: true},
	}
	for _, k := range Kinds() {
		p := New(k)
		owners := ownerStates[p.Name()]
		for _, s := range p.States() {
			out := p.OnSnoop(s, 0, true, SnBusRead)
			if out.Inhibit != owners[s] {
				t.Errorf("%v: state %v inhibit = %v, want %v", k, s, out.Inhibit, owners[s])
			}
		}
	}
}

// TestLocalRMWOnlyForExclusiveLatestStates: a local Test-and-Set is legal
// only in states that are simultaneously exclusive and latest-valued.
func TestLocalRMWOnlyForExclusiveLatestStates(t *testing.T) {
	want := map[string]map[State]bool{
		"rb":           {Local: true},
		"rwb":          {Local: true},
		"goodman":      {Reserved: true, DirtyState: true},
		"writethrough": {},
		"cmstar":       {},
		"nocache":      {},
		"illinois":     {Reserved: true, DirtyState: true},
		"rb-dirty":     {Local: true},
	}
	for _, k := range Kinds() {
		p := New(k)
		for _, s := range p.States() {
			if got := p.LocalRMW(s); got != want[p.Name()][s] {
				t.Errorf("%v: LocalRMW(%v) = %v, want %v", k, s, got, want[p.Name()][s])
			}
		}
	}
}
