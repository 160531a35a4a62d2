package bus

import "fmt"

// Set is a group of shared buses interleaved on the least significant
// address bits, the multiple-shared-bus configuration of Section 7 /
// Figure 7-1: "The private caches and the shared memory are divided into
// two memory banks using the least significant address bit. Each part of
// the divided cache will generate, on average, half of the traffic."
//
// The number of buses must be a power of two so the bank of an address is
// addr & (n-1). Every bank sees the same caches, so the banks share one
// holder table (see Presence).
type Set struct {
	buses []*Bus
	mask  Addr
	//phase:bus
	grants []Grant // reused per-Tick scratch; contents valid until the next Tick
}

// NewSet creates n interleaved buses over the same memory. n must be a
// power of two and at least 1.
func NewSet(mem Memory, n int) *Set {
	if n < 1 || n&(n-1) != 0 {
		panic(fmt.Sprintf("bus: set size %d is not a positive power of two", n))
	}
	s := &Set{mask: Addr(n - 1)}
	pres := &Presence{}
	for i := 0; i < n; i++ {
		b := newBus(mem, pres)
		b.Bank = i
		b.Banks = n
		s.buses = append(s.buses, b)
	}
	return s
}

// Len returns the number of buses in the set.
func (s *Set) Len() int { return len(s.buses) }

// BankOf returns the bus index serving the given address.
func (s *Set) BankOf(a Addr) int { return int(a & s.mask) }

// Bus returns the i'th bus (for per-bank statistics and configuration).
func (s *Set) Bus(i int) *Bus { return s.buses[i] }

// Attach registers the snooper on every bus: a private cache is "divided"
// across all banks, so it must snoop all of them.
func (s *Set) Attach(id int, sn Snooper) {
	for _, b := range s.buses {
		b.Attach(id, sn)
	}
}

// AttachRequester registers the requester on every bus.
func (s *Set) AttachRequester(id int, r Requester) {
	for _, b := range s.buses {
		b.AttachRequester(id, r)
	}
}

// RequestSlot asserts id's request line on the bus serving addr; the
// machine's request-line phase drives it.
//
//phase:snoop
func (s *Set) RequestSlot(addr Addr, id int) {
	s.buses[s.BankOf(addr)].RequestSlot(id)
}

// PrioritySlot asserts id's priority retry line on the bus serving addr;
// the machine asserts it while completing a killed read in the bus phase.
//
//phase:bus
func (s *Set) PrioritySlot(addr Addr, id int) {
	s.buses[s.BankOf(addr)].PrioritySlot(id)
}

// CancelSlot deasserts id's request line on every bus; the machine's
// request-line phase drives it.
//
//phase:snoop
func (s *Set) CancelSlot(id int) {
	for _, b := range s.buses {
		b.CancelSlot(id)
	}
}

// SetInjector installs one fault injector on every bus (nil removes it).
// The injector sees each bank's own cycle counter; banks tick in lockstep,
// so the counters agree.
func (s *Set) SetInjector(inj Injector) {
	for _, b := range s.buses {
		b.SetInjector(inj)
	}
}

// SetMemLatency configures the memory hold time on every bus.
func (s *Set) SetMemLatency(cycles int) {
	for _, b := range s.buses {
		b.MemLatency = cycles
	}
}

// Grant is one completed transaction from a Tick of the set.
type Grant struct {
	BusIndex int
	Req      Request
	Res      Result
}

// Tick advances every bus one cycle and returns the transactions granted
// this cycle, in bank order. With n buses up to n transactions complete
// per cycle — the bandwidth multiplication of Figure 7-1. The returned
// slice is set-owned scratch, overwritten by the next Tick; callers
// consume it immediately (as the machine's bus phase does) rather than
// retaining it.
//
//phase:bus
func (s *Set) Tick() []Grant {
	grants := s.grants[:0]
	for i, b := range s.buses {
		if req, res, ok := b.Tick(); ok {
			grants = append(grants, Grant{BusIndex: i, Req: req, Res: res})
		}
	}
	s.grants = grants
	return grants
}

// Stats returns aggregated statistics across all buses.
func (s *Set) Stats() Stats {
	var total Stats
	for _, b := range s.buses {
		st := b.Stats()
		total.Add(&st)
	}
	return total
}

// PerBusTransactions returns the completed-transaction count of each bus,
// used to demonstrate the even traffic split of Figure 7-1.
func (s *Set) PerBusTransactions() []uint64 {
	out := make([]uint64, len(s.buses))
	for i, b := range s.buses {
		st := b.Stats()
		out[i] = st.Transactions()
	}
	return out
}
