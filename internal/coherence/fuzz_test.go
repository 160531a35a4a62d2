package coherence

import "testing"

// FuzzProtocolStep steps the interpreter on a fuzzer-chosen cell of a
// fuzzer-chosen table (RWB also at a fuzzer-chosen K) with a fuzzer-chosen
// streak and dirty bit, and asserts what the simulator assumes on every
// step: the answer is one of the arcs the table wrote for that cell — for
// a counted cell, the arm its guard selects — and passes the shared
// sanity rules. The cell comes from Table.Cells, so every run lands on a
// meaningful position rather than rejecting most inputs.
func FuzzProtocolStep(f *testing.F) {
	kinds := Kinds()
	// Seed one probe per protocol plus the interesting corners: the RWB
	// threshold region, a snooped write against a dirty line, and
	// saturated aux.
	for i := range kinds {
		f.Add(uint8(i), uint8(0), uint8(0), uint8(0), false)
	}
	f.Add(uint8(1), uint8(15), uint8(2), uint8(1), false) // rwb F --CW--> at the threshold
	f.Add(uint8(1), uint8(16), uint8(7), uint8(5), false) // its Test-and-Set at k=7, below it
	f.Add(uint8(0), uint8(18), uint8(0), uint8(0), true)  // rb Local, dirty, snoop write
	f.Add(uint8(6), uint8(24), uint8(0), uint8(255), true)

	f.Fuzz(func(t *testing.T, kindSel, cellSel, k, aux uint8, dirty bool) {
		tab := New(kinds[int(kindSel)%len(kinds)])
		if tab.K != 0 && k >= 2 {
			tab = NewRWB(k)
		}
		cells := tab.Cells()
		c := cells[int(cellSel)%len(cells)]
		if d := c.Defect(); d != "" {
			t.Fatalf("%s (%v, %v): %s", tab.Name(), c.State, c.On, d)
		}
		want := c.Arms[0]
		if want.Streak == StreakCount && aux+1 >= tab.K {
			want = c.Arms[1]
		}
		s := c.State

		var next State
		if e, ok := c.On.Proc(); ok {
			out := tab.OnProc(s, aux, e)
			next = out.Next
			if out.Action != want.Action || out.Dirty != want.Dirty || out.NoAllocate != want.NoAllocate {
				t.Errorf("%s: OnProc(%v, aux=%d, %v) = %+v, table says %+v", tab.Name(), s, aux, e, out, want)
			}
			for _, v := range CheckProcOutcome(s, e, out) {
				t.Errorf("%s: OnProc(%v, aux=%d, %v): %s", tab.Name(), s, aux, e, v)
			}
		} else if ev, ok := c.On.Snoop(); ok {
			out := tab.OnSnoop(s, aux, dirty, ev)
			next = out.Next
			if out.Inhibit != want.Inhibit || out.TakeData != want.TakeData || out.Dirty != want.Dirty {
				t.Errorf("%s: OnSnoop(%v, aux=%d, dirty=%v, %v) = %+v, table says %+v", tab.Name(), s, aux, dirty, ev, out, want)
			}
			for _, v := range CheckSnoopOutcome(s, ev, out) {
				t.Errorf("%s: OnSnoop(%v, aux=%d, dirty=%v, %v): %s", tab.Name(), s, aux, dirty, ev, v)
			}
		} else {
			var bcast Action
			next, _, bcast = tab.RMWSuccess(s, aux)
			wantBcast := ActWrite // the locked write part is BW, or BI where the arc generates BI
			if want.Action == ActInv {
				wantBcast = ActInv
			}
			if bcast != wantBcast {
				t.Errorf("%s: RMWSuccess(%v, aux=%d) broadcasts %v, want %v", tab.Name(), s, aux, bcast, wantBcast)
			}
		}
		if next != want.Next {
			t.Errorf("%s: (%v, aux=%d, %v) goes to %v, table says %v", tab.Name(), s, aux, c.On, next, want.Next)
		}

		// The rules that are not arcs, on the same state.
		_, flushed, _ := tab.RMWFlush(s, dirty)
		declared := map[State]bool{}
		for _, d := range tab.States() {
			declared[d] = true
		}
		for what, target := range map[string]State{
			"the arc": next, "RMWFlush": flushed, "ReadMissTarget": tab.ReadMissTarget(dirty),
		} {
			if !declared[target] {
				t.Errorf("%s: %s from %v targets undeclared state %v", tab.Name(), what, s, target)
			}
		}
	})
}
