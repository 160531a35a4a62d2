package bus

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// rrModel is the arbiter's specification, kept independent of the
// request-line bitmap: the asserted sources as a sorted slice, the
// priority claim, and the last winner.
type rrModel struct {
	asserted          []int
	priority, lastWin int
}

func (m *rrModel) request(id int) {
	if i := sort.SearchInts(m.asserted, id); i == len(m.asserted) || m.asserted[i] != id {
		m.asserted = append(m.asserted[:i], append([]int{id}, m.asserted[i:]...)...)
	}
}

func (m *rrModel) cancel(id int) {
	if i := sort.SearchInts(m.asserted, id); i < len(m.asserted) && m.asserted[i] == id {
		m.asserted = append(m.asserted[:i], m.asserted[i+1:]...)
	}
	if m.priority == id {
		m.priority = -1
	}
}

// pick returns the next source to grant, or -1: the priority claimant,
// else the first asserted id above lastWin, wrapping to the lowest.
func (m *rrModel) pick() int {
	s := m.priority
	if s == -1 {
		if len(m.asserted) == 0 {
			return -1
		}
		s = m.asserted[sort.SearchInts(m.asserted, m.lastWin+1)%len(m.asserted)]
	}
	m.cancel(s)
	m.lastWin = s
	return s
}

// fickleReq supplies a read when granted, unless told to withdraw once.
type fickleReq struct{ withdraw bool }

func (r *fickleReq) BusGrant(int, int) (Request, bool) {
	if r.withdraw {
		r.withdraw = false
		return Request{}, false
	}
	return Request{Op: OpRead, Addr: 7}, true
}

// TestArbiterMatchesRoundRobinModel drives random RequestSlot, CancelSlot,
// PrioritySlot and Tick sequences (with grants withdrawn at random, so one
// Tick can pick several times) and checks every grant, PendingLen and
// Slotted against the model — at one source, around the bitmap's word
// boundary, and with a third word.
func TestArbiterMatchesRoundRobinModel(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			b := New(newFakeMem())
			reqs := make([]*fickleReq, n)
			// Attach in a shuffled order: the bitmap grows as ids arrive.
			for _, id := range rng.Perm(n) {
				reqs[id] = &fickleReq{}
				b.AttachRequester(id, reqs[id])
			}
			m := &rrModel{priority: -1, lastWin: -1}
			for step := 0; step < 20000; step++ {
				id := rng.Intn(n)
				switch op := rng.Intn(10); {
				case op < 4:
					b.RequestSlot(id)
					m.request(id)
				case op < 5:
					b.CancelSlot(id)
					m.cancel(id)
				case op < 6:
					if m.priority == -1 || m.priority == id {
						b.PrioritySlot(id)
						m.priority = id
					}
				case op < 7:
					reqs[id].withdraw = true
				default:
					want := m.pick()
					for want != -1 && reqs[want].withdraw {
						want = m.pick() // the bus clears the flag as it is declined
					}
					req, _, granted := b.Tick()
					if got := req.Source; granted != (want != -1) || granted && got != want {
						t.Fatalf("step %d: granted=%v source %d, model wants %d", step, granted, got, want)
					}
				}
				pending := len(m.asserted)
				if m.priority != -1 {
					pending++
				}
				if b.PendingLen() != pending {
					t.Fatalf("step %d: PendingLen = %d, model %d", step, b.PendingLen(), pending)
				}
				i := sort.SearchInts(m.asserted, id)
				if want := m.priority == id || i < len(m.asserted) && m.asserted[i] == id; b.Slotted(id) != want {
					t.Fatalf("step %d: Slotted(%d) = %v, model %v", step, id, b.Slotted(id), want)
				}
			}
		})
	}
}
