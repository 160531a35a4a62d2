package bus

import (
	"slices"
	"testing"
)

// wideIDs span three mask words: both ends of the first two and one id
// in the third.
var wideIDs = []int{0, 63, 64, 127, 129}

// logSnooper records, per callback, the ids the bus dispatched it to.
type logSnooper struct {
	id  int
	log map[string][]int
}

func (s *logSnooper) note(cb string) { s.log[cb] = append(s.log[cb], s.id) }

func (s *logSnooper) SnoopRead(Addr, int) (bool, Word) { s.note("SnoopRead"); return false, 0 }
func (s *logSnooper) SnoopRMWRead(Addr, int) (bool, Word) {
	s.note("SnoopRMWRead")
	return false, 0
}
func (s *logSnooper) ObserveWrite(Op, Addr, Word, int) { s.note("ObserveWrite") }
func (s *logSnooper) ObserveReadData(Addr, Word, int)  { s.note("ObserveReadData") }

// keeper is a logSnooper that keeps the bus's holder table.
type keeper struct {
	logSnooper
	pres *Presence
}

func (k *keeper) SetPresence(p *Presence) { k.pres = p }

// TestDispatchReachesHoldersAndNonKeepers: every transaction reaches
// exactly the recorded holders of its address plus the snoopers that keep
// no table, never its source, in ascending id order — on dense and sparse
// addresses, with ids in three mask words.
func TestDispatchReachesHoldersAndNonKeepers(t *testing.T) {
	mem := newFakeMem()
	b := New(mem)
	log := map[string][]int{}
	keepers := map[int]*keeper{}
	for _, id := range wideIDs {
		if id == 63 || id == 127 {
			b.Attach(id, &logSnooper{id: id, log: log})
			continue
		}
		k := &keeper{logSnooper: logSnooper{id: id, log: log}}
		b.Attach(id, k)
		if k.pres != b.pres {
			t.Fatalf("keeper %d was not handed the bus's table", id)
		}
		keepers[id] = k
	}
	reqs := map[int]*stubReq{}
	for _, a := range []Addr{7, presenceDenseLimit + 7} {
		// Keepers 0 and 129 hold a; keeper 64 does not.
		keepers[0].pres.Add(a, 0)
		keepers[129].pres.Add(a, 129)
		for _, src := range []int{0, 5, 63, 129} {
			var want []int
			for _, id := range []int{0, 63, 127, 129} {
				if id != src {
					want = append(want, id)
				}
			}
			for _, tc := range []struct {
				req Request
				cbs []string
			}{
				{Request{Op: OpRead, Addr: a}, []string{"SnoopRead", "ObserveReadData"}},
				{Request{Op: OpWrite, Addr: a, Data: 1}, []string{"ObserveWrite"}},
				{Request{Op: OpInv, Addr: a}, []string{"ObserveWrite"}},
				{Request{Op: OpRMW, Addr: a, Data: 1}, []string{"SnoopRMWRead", "ObserveWrite"}},
			} {
				clear(log)
				mem.words[a] = 0 // the RMW succeeds and broadcasts its write
				r, ok := reqs[src]
				if !ok {
					r = &stubReq{}
					b.AttachRequester(src, r)
					reqs[src] = r
				}
				r.queue = append(r.queue, &tc.req)
				b.RequestSlot(src)
				if _, _, granted := b.Tick(); !granted {
					t.Fatalf("addr %d, source %d: %v not granted", a, src, tc.req.Op)
				}
				for _, cb := range tc.cbs {
					if got := log[cb]; !slices.Equal(got, want) {
						t.Errorf("addr %d, source %d, %v: %s reached %v, want %v", a, src, tc.req.Op, cb, got, want)
					}
				}
			}
		}
	}
}

// TestPresenceStaysExact: Add and Remove touch exactly the bit of their
// id in the word of its plane, on dense addresses on both sides of a page
// boundary and inside a later page, and on sparse ones.
func TestPresenceStaysExact(t *testing.T) {
	p := &Presence{}
	p.grow(129)
	masks := func(a Addr) []uint64 {
		return []uint64{p.Mask(a, 0), p.Mask(a, 1), p.Mask(a, 2)}
	}
	const edge = presencePageWords
	for _, a := range []Addr{5, edge - 1, edge, 3*edge + 5, presenceDenseLimit + 5} {
		for _, id := range wideIDs {
			p.Add(a, id)
		}
		if got, want := masks(a), []uint64{1 | 1<<63, 1 | 1<<63, 1 << 1}; !slices.Equal(got, want) {
			t.Fatalf("addr %d after Add: %x, want %x", a, got, want)
		}
		if got := masks(a + 1); !slices.Equal(got, []uint64{0, 0, 0}) {
			t.Fatalf("addr %d: a neighbour reads holders %x", a, got)
		}
		p.Remove(a, 63)
		p.Remove(a, 64)
		p.Remove(a+1, 0) // not a holder: no effect
		if got, want := masks(a), []uint64{1, 1 << 63, 1 << 1}; !slices.Equal(got, want) {
			t.Fatalf("addr %d after Remove: %x, want %x", a, got, want)
		}
		for _, id := range []int{0, 127, 129} {
			p.Remove(a, id)
		}
		if got := masks(a); !slices.Equal(got, []uint64{0, 0, 0}) {
			t.Fatalf("addr %d after removing every holder: %x", a, got)
		}
	}
	for w, pl := range p.planes {
		if len(pl.sparse) != 0 {
			t.Fatalf("plane %d keeps %d empty sparse entries", w, len(pl.sparse))
		}
	}
}
