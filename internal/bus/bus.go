// Package bus models the logically-single shared bus of the paper's
// machine: n processing elements and I/O connected to memory over one
// broadcast medium (paper Section 2, assumptions 1-6).
//
// The bus is the serialization point of the whole machine. One transaction
// executes per bus cycle; every cache "listens" (snoops) on every
// transaction; a cache holding the line in the Local state can interrupt a
// bus read, replace it with a bus write of its own data, and force the read
// to be retried on the next cycle (assumption 6 and Section 3, case ii.b).
//
// Arbitration is request-line based, as on a real bus: a device asserts its
// request line (RequestSlot), the arbiter grants one device per cycle
// (round-robin, with an interrupted read's retry taking absolute priority),
// and the granted device supplies its transaction at grant time
// (Requester.BusGrant). Building the transaction at grant time — rather
// than queueing payloads — matters for correctness: a cache's state can
// change between requesting the bus and winning it (a snooped write can
// invalidate the line it meant to write back), and the transaction must
// reflect the state at the moment the bus is actually driven.
//
// The package also provides Set, a group of buses interleaved on the low
// address bits, implementing the multiple-shared-bus configuration of
// Section 7 / Figure 7-1.
package bus

import (
	"fmt"
	"math/bits"
)

// Addr is a word address. The paper assumes a one-word block size
// (assumption 7), so there is no separate block/line address.
type Addr uint32

// Word is the machine word: the unit of all data transfer.
type Word uint32

// Op enumerates bus transaction kinds.
type Op uint8

const (
	// OpRead is a bus read: fetch a word from memory (or from an
	// interrupting Local owner). Its returned data is broadcast: snooping
	// caches may pick it up (the "RB" in the RB scheme).
	OpRead Op = iota
	// OpWrite is a bus write: update memory and broadcast the new value.
	// Under RB snoopers only note the event; under RWB they also read the
	// data part.
	OpWrite
	// OpInv is the RWB scheme's bus invalidate signal. It carries no data
	// (the paper reserves one data value to encode it; we model it as a
	// distinct op, which is equivalent and clearer).
	OpInv
	// OpRMW is an atomic read-modify-write, the bus realization of
	// Test-and-Set: a locked read followed, if the test succeeds, by a
	// write in the same transaction (Section 6).
	OpRMW
	numOps
)

// String returns the conventional short name used in the paper's figures.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "BR"
	case OpWrite:
		return "BW"
	case OpInv:
		return "BI"
	case OpRMW:
		return "RMW"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Request is a bus transaction supplied by a granted requester. The
// arbiter stamps Source while granting, which happens only in the bus
// phase.
type Request struct {
	//phase:bus
	Source int  // requesting cache index
	Op     Op   // transaction kind
	Addr   Addr // word address
	Data   Word // for OpWrite: value written; for OpRMW: value to set on success
	// SuccessOp selects how a successful OpRMW's write part is broadcast:
	// OpWrite (the common case) or OpInv (RWB taking a line Local on a
	// completed write streak). The zero value is treated as OpWrite.
	SuccessOp Op
	// Retry marks the re-issue of a read that was killed by a Local owner
	// (informational; priority is carried by PrioritySlot).
	Retry bool
	// Lock marks an OpRead as the paper's "read with lock": on completion
	// the bus locks the word — writes and locked operations to it by
	// other sources stall — until the holder's Unlock write. (Section 6:
	// "a special bus read operation is generated that locks the
	// appropriate shared memory location".)
	Lock bool
	// Unlock marks an OpWrite (or OpInv) as the holder's "store back ...
	// and the lock removed" operation.
	Unlock bool
}

// Result reports the outcome of an executed transaction to its issuer.
type Result struct {
	// Killed is set when a bus read was interrupted by a Local owner. The
	// read consumed its cycle (the owner's flush write used the slot) and
	// the issuer must retry via PrioritySlot.
	Killed bool
	// Data is the word obtained by OpRead, or the word observed by the
	// locked read of OpRMW.
	Data Word
	// RMWSuccess reports whether the OpRMW test (Data == 0) succeeded and
	// the write part was performed. Set by the bus-phase executor.
	//phase:bus
	RMWSuccess bool
	// SharedLine reports, for OpRead, whether any other cache held a
	// valid copy at the time of the read — the wired-OR "shared" line
	// that lets Illinois-style protocols install clean-exclusive copies.
	// Only snoopers implementing CopyHolder contribute.
	SharedLine bool
}

// CopyHolder is an optional Snooper extension: caches that implement it
// drive the bus's shared line during reads.
type CopyHolder interface {
	// HasCopy reports whether the cache holds a valid (non-Invalid) copy
	// of the address.
	//phase:bus
	HasCopy(a Addr) bool
}

// PresenceKeeper is an optional Snooper extension: a snooper that keeps
// the bus's holder table exact (see Presence). Attach hands it the table,
// and the bus then offers it only transactions on addresses it holds; a
// snooper that keeps no table counts as a holder of every address.
type PresenceKeeper interface {
	SetPresence(p *Presence)
}

// Snooper is a device (a private cache) listening on the bus. The bus
// never calls a snooper for transactions it sourced itself.
type Snooper interface {
	// SnoopRead is offered every bus read before memory responds. A cache
	// holding the line in the Local state must return inhibit=true and the
	// cached value; the bus then kills the read, writes the value through
	// to memory, broadcasts that write, and the issuer retries.
	//phase:bus
	SnoopRead(addr Addr, source int) (inhibit bool, data Word)

	// SnoopRMWRead is offered the locked read of an OpRMW. Unlike a plain
	// read this is non-cachable (Section 6: a failed Test-and-Set is "a
	// non-cachable read"), so a clean Local owner need not give up its
	// state; only a *dirty* Local owner must flush so the locked read
	// observes the latest value.
	//phase:bus
	SnoopRMWRead(addr Addr, source int) (flush bool, data Word)

	// ObserveWrite is invoked for every OpWrite and OpInv transaction by
	// other devices, including the flush writes generated by read
	// interrupts.
	//phase:bus
	ObserveWrite(op Op, addr Addr, data Word, source int)

	// ObserveReadData is invoked with the data returned by a successfully
	// completed bus read: the broadcast that lets Invalid copies turn
	// Readable (the heart of the RB scheme).
	//phase:bus
	ObserveReadData(addr Addr, data Word, source int)
}

// Requester is a device that can be granted the bus. BusGrant is called
// when the arbiter selects the device; the device returns the transaction
// it needs *now*, built from its current state, restricted to addresses
// this bus serves (bank/banks interleaving, Figure 7-1; a single bus is
// bank 0 of 1). Returning ok=false withdraws the request — the device no
// longer needs the bus (for this bank), and the arbiter moves on within
// the same cycle.
type Requester interface {
	//phase:bus
	BusGrant(bank, banks int) (req Request, ok bool)
}

// Verdict is an Injector's ruling on one granted transaction.
type Verdict uint8

const (
	// VerdictPass executes the transaction normally.
	VerdictPass Verdict = iota
	// VerdictDrop consumes the bus cycle but executes nothing: memory and
	// the snoopers never see the transaction and the issuer receives no
	// completion. A dropped transaction models a lost bus cycle: the bus
	// re-asserts the issuer's request line (as for a stalled grant, and
	// without any priority it held), and the issuer re-derives the
	// transaction when it is next granted.
	VerdictDrop
	// VerdictDup executes the transaction twice back to back in the same
	// grant; the issuer receives the first execution's result. Unlocking
	// transactions are exempt (the second release would trip the lock
	// sanity panic) and execute once.
	VerdictDup
	// VerdictMute executes the transaction with snooping suppressed: no
	// shared-line sample, no Local-owner interrupt, no broadcast to the
	// other caches. The transaction's effects reach memory only.
	VerdictMute
)

// Injector is the bus's fault-injection port (internal/fault drives it).
// A nil injector — the default — costs one pointer test per cycle and
// per grant, keeping the fault-free hot loop allocation-free and
// bit-identical to an unhooked bus.
type Injector interface {
	// WedgeArbitration is consulted once per non-held cycle before the
	// grant loop; returning true freezes the arbiter for this cycle (no
	// source is granted, request lines stay asserted).
	WedgeArbitration(cycle uint64) bool
	// OnGrant is consulted once per granted transaction, after
	// arbitration and the lock/ready checks, before execution. The
	// request is passed by value: handing the callee a pointer would
	// force every granted request onto the heap (escape analysis cannot
	// see through an interface call), breaking the 0 allocs/cycle
	// guarantee of the fault-free loop.
	OnGrant(cycle uint64, r Request) Verdict
}

// Memory is the bus's view of the shared main memory. Memory is reached
// only through executed transactions, so both ports are bus-phase calls.
type Memory interface {
	//phase:bus
	ReadWord(a Addr) Word
	//phase:bus
	WriteWord(a Addr, w Word)
}

// StallableMemory is an optional Memory extension for memory ports that
// may be unable to service an access this cycle — the cluster adapter of
// the hierarchical configuration, whose misses must first complete a
// transaction on the next bus level. A transaction whose port is not
// Ready is not executed (no snoop effects, no state change anywhere); the
// requester's slot stays asserted and the arbiter tries other requesters
// this cycle.
type StallableMemory interface {
	Memory
	// Ready reports whether the given transaction can complete now. A
	// not-ready answer is the port's cue to start whatever upper-level
	// work the transaction needs.
	//phase:bus
	Ready(r Request) bool
}

// RMWMemory is an optional Memory extension for ports that perform the
// atomic read-modify-write themselves (a cluster adapter delegates it to
// the global bus so the atomicity is machine-wide, not cluster-wide).
// When implemented, the bus uses RMW instead of its ReadWord/WriteWord
// sequence for OpRMW transactions; Ready (if also implemented) has
// already confirmed the result is available.
type RMWMemory interface {
	Memory
	// RMW returns the old word; if it was 0, the set has already been
	// performed upstream.
	//phase:bus
	RMW(a Addr, set Word) (old Word)
}

// Stats counts bus activity.
type Stats struct {
	Grants      uint64         // grant attempts that produced a transaction
	Withdrawn   uint64         // grant attempts the requester declined
	ByOp        [numOps]uint64 // completed transactions by op
	Stalled     uint64         // grants refused by a not-ready memory port
	KilledReads uint64         // reads interrupted by a Local owner
	FlushWrites uint64         // writes generated by read interrupts
	RMWFlushes  uint64         // dirty-owner flushes forced by locked reads
	RMWSuccess  uint64         // RMW transactions whose test succeeded
	RMWFailure  uint64         // RMW transactions whose test failed
	Retries     uint64         // retried reads granted
	BusyCycles  uint64         // cycles the bus carried a transaction
	IdleCycles  uint64         // cycles with no transaction
	WaitCycles  uint64         // requester-cycles spent with a slot pending

	// Fault-injection counters (always zero without an Injector).
	FaultDrops  uint64 // granted transactions suppressed by VerdictDrop
	FaultDups   uint64 // granted transactions doubled by VerdictDup
	FaultMutes  uint64 // granted transactions executed snoop-silent
	FaultWedges uint64 // cycles the arbiter was frozen by the injector
}

// Transactions returns the total number of completed transactions.
func (s Stats) Transactions() uint64 {
	var t uint64
	for _, c := range s.ByOp {
		t += c
	}
	return t
}

// Reads returns completed bus reads (including the retried ones).
func (s Stats) Reads() uint64 { return s.ByOp[OpRead] }

// Writes returns completed bus writes (including flush writes).
func (s Stats) Writes() uint64 { return s.ByOp[OpWrite] }

// Invalidates returns completed bus invalidate signals.
func (s Stats) Invalidates() uint64 { return s.ByOp[OpInv] }

// RMWs returns completed read-modify-write transactions.
func (s Stats) RMWs() uint64 { return s.ByOp[OpRMW] }

// Utilization returns the fraction of elapsed cycles the bus was busy.
func (s Stats) Utilization() float64 {
	total := s.BusyCycles + s.IdleCycles
	if total == 0 {
		return 0
	}
	return float64(s.BusyCycles) / float64(total)
}

// Add accumulates other into s (used to aggregate a Set's buses).
func (s *Stats) Add(other *Stats) {
	s.Grants += other.Grants
	s.Withdrawn += other.Withdrawn
	s.Stalled += other.Stalled
	for i := range s.ByOp {
		s.ByOp[i] += other.ByOp[i]
	}
	s.KilledReads += other.KilledReads
	s.FlushWrites += other.FlushWrites
	s.RMWFlushes += other.RMWFlushes
	s.RMWSuccess += other.RMWSuccess
	s.RMWFailure += other.RMWFailure
	s.Retries += other.Retries
	s.BusyCycles += other.BusyCycles
	s.IdleCycles += other.IdleCycles
	s.WaitCycles += other.WaitCycles
	s.FaultDrops += other.FaultDrops
	s.FaultDups += other.FaultDups
	s.FaultMutes += other.FaultMutes
	s.FaultWedges += other.FaultWedges
}

// Bus is a single shared bus with a round-robin arbiter, driven one cycle
// at a time via Tick. It owns the holder table its transactions are
// dispatched through, for any number of snoopers (see Presence).
type Bus struct {
	mem Memory
	// stallMem and rmwMem cache the optional-extension views of mem,
	// resolved once at construction instead of per transaction.
	stallMem StallableMemory
	rmwMem   RMWMemory

	// snoopers and reqs are the snooper and requester registries, indexed
	// by source id (nil entries are unattached ids). Ids are the small
	// dense PE/cluster indices, so dispatch is an index load and
	// registration order cannot influence anything. holders caches each
	// snooper's CopyHolder view (nil when it does not drive the shared
	// line), resolved at Attach.
	snoopers []Snooper
	holders  []CopyHolder
	reqs     []Requester

	// pres is the exact holder table (see Presence) the bus offers each
	// transaction from: the recorded holders of its address plus always,
	// the snoopers that keep no table (a bit per id, one word per plane).
	// targets is the per-transaction dispatch scratch.
	pres   *Presence
	always []uint64
	//phase:bus
	targets []int

	// The request lines are asserted/deasserted by the request-line
	// (snoop) phase and consumed by the arbiter in the bus phase, so the
	// slot state is co-owned by both. One bit per source id, sized with
	// reqs; asserted is its population count.
	//phase:bus,snoop
	lines []uint64
	//phase:bus,snoop
	asserted int
	//phase:bus
	stalled []int // per-Tick scratch: sources whose grant stalled this cycle
	//phase:bus,snoop
	priority int // source owed an immediate retry; -1 when none
	//phase:bus
	lastWin int // last granted source, for round-robin rotation

	// Bank and Banks identify this bus's address interleave (Figure 7-1).
	// A standalone bus serves every address: bank 0 of 1.
	Bank, Banks int

	// MemLatency is the number of extra cycles (beyond the transaction's
	// own cycle) a memory-served transaction holds the bus. Zero matches
	// the paper's assumption that the bus cycle accommodates the access.
	MemLatency int
	//phase:bus
	busyUntil uint64 // absolute cycle until which the bus is occupied
	//phase:bus
	cycle uint64

	// Word lock for two-phase read-modify-write: the paper notes "it is
	// generally considered too expensive to associate a lock with each
	// memory address", so one lock register serves the whole memory (a
	// second locker stalls until release).
	//phase:bus
	lockHolder int // source holding the lock; -1 when free
	//phase:bus
	lockAddr Addr

	//phase:bus
	stats Stats

	// inj is the optional fault injector; nil (the default) keeps every
	// hook a single pointer test. muteSnoops is set for the duration of a
	// VerdictMute execution: gatherTargets then dispatches to nobody.
	inj Injector
	//phase:bus
	muteSnoops bool

	// Trace, when non-nil, receives every completed transaction; the
	// figure-reproduction experiments use it to print bus activity.
	Trace func(cycle uint64, r Request, res Result)
}

// New creates a bus over the given memory, with a holder table of its own.
func New(mem Memory) *Bus { return newBus(mem, &Presence{}) }

// newBus creates a bus over mem that dispatches through the holder table
// pres, which a Set shares across its banks.
func newBus(mem Memory, pres *Presence) *Bus {
	if mem == nil {
		panic("bus: nil memory")
	}
	b := &Bus{mem: mem, pres: pres, priority: -1, lastWin: -1, Banks: 1, lockHolder: -1}
	b.stallMem, _ = mem.(StallableMemory)
	b.rmwMem, _ = mem.(RMWMemory)
	return b
}

// SetInjector installs (or, with nil, removes) the fault injector.
func (b *Bus) SetInjector(inj Injector) { b.inj = inj }

// Reset returns the bus to its freshly constructed state — no asserted
// request lines, free lock register, zero counters, no injector or trace
// hook, an empty holder table — while keeping every attachment (snoopers,
// requesters, interleave identity, memory latency). The registries were
// resolved at Attach time and are part of the machine's shape, not its
// run state, so a recycled bus re-runs a workload exactly as a new one.
// The caller resets the attached caches too: their frames are what the
// emptied table recorded.
func (b *Bus) Reset() {
	b.pres.reset()
	clear(b.lines)
	b.asserted = 0
	b.stalled = b.stalled[:0]
	b.targets = b.targets[:0]
	b.priority = -1
	b.lastWin = -1
	b.busyUntil = 0
	b.cycle = 0
	b.lockHolder = -1
	b.lockAddr = 0
	b.stats = Stats{}
	b.inj = nil
	b.muteSnoops = false
	b.Trace = nil
}

// Locked reports the current lock register (holder -1 when free).
func (b *Bus) Locked() (holder int, addr Addr) { return b.lockHolder, b.lockAddr }

// blockedByLock reports whether the lock register forces r to wait:
// while a word is locked, other sources may read it but not write it,
// RMW it, or take a new lock.
func (b *Bus) blockedByLock(r *Request) bool {
	if b.lockHolder == -1 || r.Source == b.lockHolder {
		return false
	}
	switch {
	case r.Lock:
		return true // one lock register: any second locker waits
	case r.Addr != b.lockAddr:
		return false
	case r.Op == OpWrite:
		return true // "Any bus writes before the unlock will fail"
	case r.Op == OpRMW:
		return true
	case r.Op == OpRead:
		// The location itself is locked: even plain reads wait, so no
		// cache can gain a (clean-exclusive) copy mid-RMW.
		return true
	}
	return false
}

// Attach registers a snooper under the given source id. Transactions with
// Source == id are not offered to that snooper. A PresenceKeeper is handed
// the bus's holder table; any other snooper is offered every transaction.
func (b *Bus) Attach(id int, s Snooper) {
	if s == nil {
		panic("bus: nil snooper")
	}
	if id < 0 {
		panic(fmt.Sprintf("bus: negative snooper id %d", id))
	}
	if id >= len(b.snoopers) {
		b.snoopers = append(b.snoopers, make([]Snooper, id+1-len(b.snoopers))...)
		b.holders = append(b.holders, make([]CopyHolder, id+1-len(b.holders))...)
		for len(b.always) <= id>>6 {
			b.always = append(b.always, 0)
		}
		b.pres.grow(id)
	}
	if b.snoopers[id] != nil {
		panic(fmt.Sprintf("bus: duplicate snooper id %d", id))
	}
	b.snoopers[id] = s
	b.holders[id], _ = s.(CopyHolder)
	if k, ok := s.(PresenceKeeper); ok {
		k.SetPresence(b.pres)
	} else {
		b.always[id>>6] |= 1 << (id & 63)
	}
}

// gatherTargets fills the dispatch scratch with the ids of the snoopers to
// offer a transaction on addr from source: the recorded holders of addr
// and the snoopers that keep no table, never source itself, in ascending
// id order. Skipping the other caches is exact — their callbacks would be
// no-ops — and no snoop outcome depends on visit order (at most one owner
// can inhibit or flush).
func (b *Bus) gatherTargets(addr Addr, source int) []int {
	t := b.targets[:0]
	if !b.muteSnoops { // VerdictMute suppresses every snoop reaction
		for w, always := range b.always {
			m := b.pres.Mask(addr, w) | always
			if w == source>>6 {
				m &^= 1 << (source & 63)
			}
			for ; m != 0; m &= m - 1 {
				t = append(t, w<<6+bits.TrailingZeros64(m))
			}
		}
	}
	b.targets = t
	return t
}

// AttachRequester registers the device that answers grants for source id.
func (b *Bus) AttachRequester(id int, r Requester) {
	if r == nil {
		panic("bus: nil requester")
	}
	if id < 0 {
		panic(fmt.Sprintf("bus: negative requester id %d", id))
	}
	if id >= len(b.reqs) {
		grown := make([]Requester, id+1)
		copy(grown, b.reqs)
		b.reqs = grown
		for len(b.lines) <= id>>6 {
			b.lines = append(b.lines, 0)
		}
	}
	if b.reqs[id] != nil {
		panic(fmt.Sprintf("bus: duplicate requester id %d", id))
	}
	b.reqs[id] = r
}

// requester returns the registered requester for id, or nil.
func (b *Bus) requester(id int) Requester {
	if id < 0 || id >= len(b.reqs) {
		return nil
	}
	return b.reqs[id]
}

// RequestSlot asserts source id's bus-request line. Asserting an already
// asserted line is a no-op. Called from the request-line phase and by the
// bus itself when it re-asserts a stalled source's line.
//
//phase:bus,snoop
func (b *Bus) RequestSlot(id int) {
	if b.requester(id) == nil {
		panic(fmt.Sprintf("bus: slot requested for unattached source %d", id))
	}
	if bit := uint64(1) << (id & 63); b.lines[id>>6]&bit == 0 {
		b.lines[id>>6] |= bit
		b.asserted++
	}
}

// CancelSlot deasserts source id's request line (and its priority claim).
// Called from the request-line phase and by the arbiter's priority grant.
//
//phase:bus,snoop
func (b *Bus) CancelSlot(id int) {
	if b.lineAsserted(id) {
		b.lines[id>>6] &^= 1 << (id & 63)
		b.asserted--
	}
	if b.priority == id {
		b.priority = -1
	}
}

// PrioritySlot asserts source id's request line with absolute priority:
// the next grant goes to it ("The original bus read will be retried
// immediately", Section 3). Only one source may hold priority; a second
// claim panics, as at most one read can have been killed per cycle.
//
//phase:bus
func (b *Bus) PrioritySlot(id int) {
	if b.priority != -1 && b.priority != id {
		panic(fmt.Sprintf("bus: priority slot already held by %d", b.priority))
	}
	if b.requester(id) == nil {
		panic(fmt.Sprintf("bus: priority slot for unattached source %d", id))
	}
	b.priority = id
}

// lineAsserted reports whether id's ordinary request line is asserted.
func (b *Bus) lineAsserted(id int) bool {
	return id >= 0 && id>>6 < len(b.lines) && b.lines[id>>6]&(1<<(id&63)) != 0
}

// Slotted reports whether source id currently has a request line asserted.
func (b *Bus) Slotted(id int) bool { return b.priority == id || b.lineAsserted(id) }

// PendingLen returns the number of asserted request lines.
func (b *Bus) PendingLen() int {
	n := b.asserted
	if b.priority != -1 {
		n++
	}
	return n
}

// Stats returns a snapshot of the accumulated statistics.
func (b *Bus) Stats() Stats { return b.stats }

// Cycle returns the number of Tick calls so far.
func (b *Bus) Cycle() uint64 { return b.cycle }

// Tick advances the bus one cycle: the arbiter grants at most one source
// (priority first, then round-robin by id) and executes the transaction it
// supplies. granted is false on an idle or busy-hold cycle.
//
//phase:bus
func (b *Bus) Tick() (req Request, res Result, granted bool) {
	b.cycle++
	if b.cycle <= b.busyUntil {
		// Bus held by a multi-cycle (memory latency) transaction.
		b.stats.BusyCycles++
		b.stats.WaitCycles += uint64(b.PendingLen())
		return Request{}, Result{}, false
	}
	b.stats.WaitCycles += uint64(b.PendingLen())
	if b.inj != nil && b.inj.WedgeArbitration(b.cycle) {
		// Arbiter frozen: no grant, request lines stay asserted.
		b.stats.FaultWedges++
		b.stats.IdleCycles++
		return Request{}, Result{}, false
	}
	req, res, granted = b.arbitrate()
	// Stalled and dropped sources keep their request lines asserted. The
	// scratch slice is bus-owned and reused so a stall-heavy cycle
	// allocates nothing in steady state.
	for _, s := range b.stalled {
		b.RequestSlot(s)
	}
	b.stalled = b.stalled[:0]
	return req, res, granted
}

// arbitrate runs the grant loop of one non-held cycle: pick a source,
// let it supply (or withdraw) its transaction, and execute the first one
// that is not blocked by the lock register or a not-ready memory port.
// Blocked and dropped sources are parked on b.stalled; Tick re-asserts
// their lines.
func (b *Bus) arbitrate() (Request, Result, bool) {
	for {
		source, ok := b.pick()
		if !ok {
			b.stats.IdleCycles++
			return Request{}, Result{}, false
		}
		r, want := b.reqs[source].BusGrant(b.Bank, b.Banks)
		if !want {
			b.stats.Withdrawn++
			continue
		}
		if b.Banks > 1 && int(r.Addr)&(b.Banks-1) != b.Bank {
			panic(fmt.Sprintf("bus: source %d supplied addr %d outside bank %d/%d",
				source, r.Addr, b.Bank, b.Banks))
		}
		r.Source = source
		if b.blockedByLock(&r) {
			// The word (or the lock register) is held; wait for the
			// unlock, trying other requesters this cycle.
			b.stats.Stalled++
			b.stalled = append(b.stalled, source)
			continue
		}
		if b.stallMem != nil && r.Op != OpInv && !b.stallMem.Ready(r) {
			// The memory port cannot service this transaction yet (it is
			// now fetching upstream); nothing executed, try another
			// requester this cycle.
			b.stats.Stalled++
			b.stalled = append(b.stalled, source)
			continue
		}
		verdict := VerdictPass
		if b.inj != nil {
			verdict = b.inj.OnGrant(b.cycle, r)
		}
		if verdict == VerdictDrop {
			// The transaction vanishes mid-flight: the cycle is consumed
			// but neither memory nor any snooper (nor the issuer) sees it.
			// The issuer's line is re-asserted, as a stalled source's is.
			b.stats.FaultDrops++
			b.stats.BusyCycles++
			b.stalled = append(b.stalled, source)
			return Request{}, Result{}, false
		}
		b.stats.Grants++
		b.stats.BusyCycles++
		if r.Retry {
			b.stats.Retries++
		}
		var result Result
		switch verdict {
		case VerdictDup:
			b.stats.FaultDups++
			result = b.execute(&r)
			if !r.Unlock {
				b.execute(&r)
			}
		case VerdictMute:
			b.stats.FaultMutes++
			b.muteSnoops = true
			result = b.execute(&r)
			b.muteSnoops = false
		default:
			result = b.execute(&r)
		}
		if b.Trace != nil {
			b.Trace(b.cycle, r, result)
		}
		return r, result, true
	}
}

// pick removes and returns the next source to grant.
func (b *Bus) pick() (int, bool) {
	if b.priority != -1 {
		s := b.priority
		b.priority = -1
		// A priority source may also hold an ordinary slot; clear it.
		b.CancelSlot(s)
		b.lastWin = s
		return s, true
	}
	if b.asserted == 0 {
		return 0, false
	}
	// Round-robin: grant the source that follows lastWin most closely in
	// increasing (wrapping) id order — the first asserted line after it.
	s := b.nextLine(b.lastWin + 1)
	if s < 0 {
		s = b.nextLine(0)
	}
	b.lines[s>>6] &^= 1 << (s & 63)
	b.asserted--
	b.lastWin = s
	return s, true
}

// nextLine returns the lowest asserted request line with id >= from, or -1.
func (b *Bus) nextLine(from int) int {
	skip := ^uint64(0) << (from & 63) // masks off the ids below from in its word
	for w := from >> 6; w < len(b.lines); w++ {
		if word := b.lines[w] & skip; word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		skip = ^uint64(0)
	}
	return -1
}

// execute performs one transaction against memory and the snoopers.
func (b *Bus) execute(r *Request) Result {
	switch r.Op {
	case OpRead:
		res := b.executeRead(r)
		if r.Lock && !res.Killed {
			// The completed locked read takes the lock register.
			b.lockHolder, b.lockAddr = r.Source, r.Addr
		}
		return res
	case OpWrite:
		b.mem.WriteWord(r.Addr, r.Data)
		b.broadcastWrite(OpWrite, r.Addr, r.Data, r.Source)
		b.stats.ByOp[OpWrite]++
		b.release(r)
		b.hold()
		return Result{Data: r.Data}
	case OpInv:
		b.broadcastWrite(OpInv, r.Addr, 0, r.Source)
		b.stats.ByOp[OpInv]++
		b.release(r)
		// An invalidate is a pure signal; it does not touch memory and
		// needs no memory hold.
		return Result{}
	case OpRMW:
		return b.executeRMW(r)
	}
	panic(fmt.Sprintf("bus: unknown op %d", r.Op))
}

// release clears the lock register for an Unlock transaction.
func (b *Bus) release(r *Request) {
	if !r.Unlock {
		return
	}
	if b.lockHolder != r.Source {
		panic(fmt.Sprintf("bus: source %d unlocking a lock held by %d", r.Source, b.lockHolder))
	}
	b.lockHolder = -1
}

func (b *Bus) executeRead(r *Request) Result {
	// No frame set changes while the transaction executes (installs happen
	// in the requester's BusCompleted, after the Tick), so one target list
	// serves all three snoop phases.
	targets := b.gatherTargets(r.Addr, r.Source)
	// Shared-line sample: taken before any snoop reaction so it reflects
	// the pre-transaction configuration.
	shared := false
	for _, id := range targets {
		if ch := b.holders[id]; ch != nil && ch.HasCopy(r.Addr) {
			shared = true
			break
		}
	}
	// Snoop phase: a Local owner interrupts the read.
	for _, id := range targets {
		if inhibit, data := b.snoopers[id].SnoopRead(r.Addr, r.Source); inhibit {
			// The read is killed; its slot carries the owner's bus write,
			// which updates memory and is observed by everyone else
			// (including, harmlessly, the original requester's cache).
			b.mem.WriteWord(r.Addr, data)
			b.stats.KilledReads++
			b.stats.FlushWrites++
			b.stats.ByOp[OpWrite]++
			b.broadcastWrite(OpWrite, r.Addr, data, id)
			b.hold()
			return Result{Killed: true, Data: data}
		}
	}
	// Memory responds; the returned value is broadcast to all snoopers
	// (they, not the bus, decide whether to take it).
	data := b.mem.ReadWord(r.Addr)
	b.stats.ByOp[OpRead]++
	for _, id := range targets {
		b.snoopers[id].ObserveReadData(r.Addr, data, r.Source)
	}
	b.hold()
	return Result{Data: data, SharedLine: shared}
}

func (b *Bus) executeRMW(r *Request) Result {
	// Locked read: non-cachable, so only a dirty Local owner flushes, and
	// no read data is broadcast (Figures 6-1/6-2: spinning Test-and-Sets
	// leave all cache states unchanged).
	for _, id := range b.gatherTargets(r.Addr, r.Source) {
		if flush, data := b.snoopers[id].SnoopRMWRead(r.Addr, r.Source); flush {
			b.mem.WriteWord(r.Addr, data)
			b.stats.RMWFlushes++
			break // the lemma guarantees at most one Local owner
		}
	}
	var old Word
	if b.rmwMem != nil {
		// The port performs (or has performed) the atomic cycle itself.
		old = b.rmwMem.RMW(r.Addr, r.Data)
	} else {
		old = b.mem.ReadWord(r.Addr)
		if old == 0 {
			b.mem.WriteWord(r.Addr, r.Data)
		}
	}
	res := Result{Data: old}
	if old == 0 {
		// Test succeeded: the write part executed within the locked
		// transaction; the other caches see a bus write (or, for an RWB
		// Local claim, a bus invalidate).
		bc := OpWrite
		if r.SuccessOp == OpInv {
			bc = OpInv
		}
		b.broadcastWrite(bc, r.Addr, r.Data, r.Source)
		res.RMWSuccess = true
		b.stats.RMWSuccess++
	} else {
		b.stats.RMWFailure++
	}
	b.stats.ByOp[OpRMW]++
	b.hold()
	return res
}

func (b *Bus) broadcastWrite(op Op, addr Addr, data Word, source int) {
	for _, id := range b.gatherTargets(addr, source) {
		b.snoopers[id].ObserveWrite(op, addr, data, source)
	}
}

// hold occupies the bus for MemLatency additional cycles.
func (b *Bus) hold() {
	if b.MemLatency > 0 {
		b.busyUntil = b.cycle + uint64(b.MemLatency)
	}
}
