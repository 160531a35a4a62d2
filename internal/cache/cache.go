// Package cache implements the private per-processor cache of the paper's
// machine: a direct-mapped (optionally set-associative), one-word-block tag
// store driven by a coherence.Protocol, with a processor port, a bus
// request/grant port, and a snoop port.
//
// A cache has at most one outstanding processor operation — the PE blocks
// until its access completes (paper assumption 5) — but an operation may
// require several bus transactions (a victim write-back before a miss,
// Goodman's read-then-write miss, a retried read after a Local owner's
// interrupt). The cache re-derives the transaction it needs every time it
// is granted the bus, because snooped traffic can change the line's state
// while the request line is asserted: a planned write-back becomes
// unnecessary (or wrong!) once the victim has been invalidated, and a
// pending RWB read can be satisfied outright by a snarfed bus write.
package cache

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/coherence"
)

// Config sizes a cache.
type Config struct {
	// Lines is the total number of one-word line frames. Must be a
	// positive power of two. Table 1-1 uses 256..2048.
	Lines int
	// Ways is the set associativity; 1 (the default if zero) is the
	// paper's direct-mapped organization ("A direct-mapping cache with a
	// one word blocksize is assumed"). Must divide Lines.
	Ways int
}

func (c Config) normalized() Config {
	if c.Ways == 0 {
		c.Ways = 1
	}
	return c
}

func (c Config) validate() error {
	if c.Lines <= 0 || c.Lines&(c.Lines-1) != 0 {
		return fmt.Errorf("cache: Lines = %d, need a positive power of two", c.Lines)
	}
	if c.Ways <= 0 || c.Lines%c.Ways != 0 {
		return fmt.Errorf("cache: Ways = %d does not divide Lines = %d", c.Ways, c.Lines)
	}
	return nil
}

// line is one tag-store entry, 12 bytes with no padding; its LRU stamp,
// if any, is in Cache.stamps. Data, state, aux and dirty mutate from
// every phase (CPU hits, own bus completions, snoop reactions), so they
// are //phase:any; valid only flips on bus-phase events (write-back
// evictions, RMW copy drops). addr changes only through install's
// whole-struct store, which phaseaudit does not track field-by-field, so
// it carries no annotation.
type line struct {
	addr bus.Addr
	//phase:any
	data bus.Word
	//phase:bus
	valid bool
	//phase:any
	state coherence.State
	//phase:any
	aux uint8
	//phase:any
	dirty bool
}

// ClassStats breaks processor accesses down by reference class — the
// columns of Table 1-1. A "miss" is any access that needed bus activity,
// which for the Cm* baseline includes every write-through local write and
// every uncached shared reference, exactly as Raskin's experiment counted
// them.
// Only the CPU phase classifies accesses, so the per-class counters are
// cpu-owned, but for Reads: the repeats of a parked read are credited
// (CreditReadHits) in whichever phase wakes its PE.
type ClassStats struct {
	//phase:any
	Reads uint64
	//phase:cpu
	ReadMisses uint64
	//phase:cpu
	Writes uint64
	//phase:cpu
	WriteMisses uint64
}

// Stats counts cache activity, with the miss-class breakdown Table 1-1
// reports.
type Stats struct {
	ByClass       [4]ClassStats // indexed by coherence.Class
	Reads         uint64        // processor read requests
	Writes        uint64        // processor write requests
	RMWs          uint64        // processor Test-and-Set requests
	ReadHits      uint64
	WriteHits     uint64 // writes satisfied with no bus activity
	LocalRMWs     uint64 // Test-and-Sets completed inside the cache
	Evictions     uint64 // frames reassigned to a new address
	Writebacks    uint64 // eviction write-backs performed
	Snarfs        uint64 // values adopted from observed transactions
	InvalidatedBy uint64 // lines invalidated by observed traffic
	FlushSupplied uint64 // bus reads this cache interrupted and serviced
	RMWFlushes    uint64 // locked-read flushes supplied
	Retries       uint64 // reads re-issued after an interrupt
	Bypasses      uint64 // non-cachable accesses sent straight to the bus

	// Fault-injection counters (always zero without injection).
	FaultInvalidates uint64 // lines spuriously invalidated via InjectInvalidate
	FaultStaleFlips  uint64 // line data perturbed via InjectStale
}

// MissRatio returns 1 - hits/accesses over reads and writes (Test-and-Sets
// excluded: the paper accounts for them separately in Section 6).
func (s *Stats) MissRatio() float64 {
	total := s.Reads + s.Writes
	if total == 0 {
		return 0
	}
	hits := s.ReadHits + s.WriteHits
	return 1 - float64(hits)/float64(total)
}

// pending is the cache's single in-flight processor operation.
type pending struct {
	ev    coherence.ProcEvent
	class coherence.Class
	addr  bus.Addr
	data  bus.Word // value to write / to set on RMW success
	rmw   bool
	// retry flips only on bus-phase events (the kill and the successful
	// re-read both arrive via BusCompleted).
	//phase:bus
	retry bool // the read was killed; re-issue with Retry set
	// Two-phase Test-and-Set support (the paper's textual "read with
	// lock" / "store back and unlock" realization):
	lockRead bool // phase 1: non-cachable locked bus read
	unlock   bool // phase 2: the write releases the bus lock
	bypass   bool // force a non-cachable transaction regardless of class
}

// ResolveInfo describes a completed processor operation at the moment its
// result value binds. The machine's sequential-consistency oracle hooks
// this: the binding moment — not the (possibly later) delivery to the
// processor — is the operation's position in the serialization order of
// the Section 4 proof.
type ResolveInfo struct {
	RMW   bool
	Ev    coherence.ProcEvent
	Addr  bus.Addr
	Data  bus.Word // value written (stores) or set on success (RMW)
	Value bus.Word // bound result: loaded value, or the RMW's old word
}

// Cache is one processing element's private cache.
type Cache struct {
	id    int
	proto coherence.Protocol
	cfg   Config
	// lines is the whole tag store in one arena: set s occupies
	// lines[s*ways : (s+1)*ways], so a lookup costs one host-cache miss,
	// not a slice-header load and then the line.
	lines []line
	nsets int

	// stamps[i] is lines[i]'s last use on useClock, for victim to compare
	// within a set; nil when direct-mapped, where there is no choice.
	//phase:any
	stamps []uint64
	//phase:any
	useClock uint64
	// The single in-flight operation and its completion value are embedded
	// (not heap-allocated per miss) so the steady-state cycle loop stays
	// allocation-free; hasPend/hasResolved play the role the nil pointers
	// used to. New operations start in the CPU phase (and, for the second
	// leg of a two-phase Test-and-Set, at delivery time), so pend and
	// hasPend mutate from every phase; resolutions only bind in the bus
	// and request-line phases.
	//phase:any
	pend pending
	//phase:any
	hasPend bool
	//phase:bus,snoop
	resolved bus.Word // completion value awaiting pickup
	//phase:bus,snoop
	hasResolved bool

	// plan memoization: the transaction a blocked cache needs is a pure
	// function of its pending op and the frames (and LRU stamps) of that
	// op's set, so it is recomputed only after one of them changes (a new
	// op, an own bus completion, a snoop on that set; see mutated). With
	// many PEs most caches are blocked most cycles, and without the memo
	// every one of them re-derives the same plan every cycle. The memo is
	// invalidated (planOK) from any phase but recomputed only where it is
	// consulted: grant time (bus) and request-line management (snoop).
	//phase:any
	planOK bool
	//phase:bus,snoop
	planReq bus.Request
	//phase:bus,snoop
	planNeed bool
	// news, when non-nil, is this cache's bit in the machine's has-news
	// set (see SetNews): mutated raises it, the machine's request-line
	// phase lowers it.
	//phase:any
	news    *uint64
	newsBit uint64

	// OnResolve, when non-nil, is invoked synchronously whenever an
	// operation's result binds — on cache hits, bus completions, and
	// snoop-satisfied resolutions alike.
	OnResolve func(ResolveInfo)

	// probe, when non-nil, observes the processor's reference stream (see
	// Probe).
	probe Probe

	// pres is the holder table of the bus the cache is attached to, which
	// dispatches snoops only to frame holders; the cache keeps it exact
	// wherever a frame's (valid, addr) binding changes.
	pres *bus.Presence

	//phase:any
	stats Stats

	// The parked read (see Park), after the fields the hit and snoop paths
	// use: spinning is set while the PE re-reads spinAddr, which sits in
	// frame spinFrame holding spinData; a change to that line raises the
	// wake bit (see SetWake).
	//phase:any
	spinning bool
	//phase:cpu
	spinAddr bus.Addr
	//phase:cpu
	spinClass coherence.Class
	//phase:cpu
	spinFrame int
	//phase:cpu
	spinData bus.Word
	//phase:any
	wake    *uint64
	wakeBit uint64
}

// New creates a cache for PE id using the given protocol.
func New(id int, proto coherence.Protocol, cfg Config) (*Cache, error) {
	cfg = cfg.normalized()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if proto == nil {
		return nil, fmt.Errorf("cache: nil protocol")
	}
	c := &Cache{id: id, proto: proto, cfg: cfg, lines: make([]line, cfg.Lines), nsets: cfg.Lines / cfg.Ways}
	if cfg.Ways > 1 {
		c.stamps = make([]uint64, cfg.Lines)
	}
	return c, nil
}

// MustNew is New panicking on error, for tests and fixed-config tools.
func MustNew(id int, proto coherence.Protocol, cfg Config) *Cache {
	c, err := New(id, proto, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// ID returns the PE/bus source id.
func (c *Cache) ID() int { return c.id }

// SetPresence implements bus.PresenceKeeper: Attach hands the cache the
// holder table it reports its frame occupancy to. A cache takes no traffic
// before it is attached and starts with no valid frames, so the table
// needs no seeding.
func (c *Cache) SetPresence(p *bus.Presence) { c.pres = p }

// SetNews wires the cache to its bit (mask) of a has-news word: every
// change that can move the cache's bus needs — a new or finished
// in-flight operation, an own bus completion, a local resolution, snooped
// traffic on the set the pending operation maps to — raises the bit (see
// mutated). Whoever lowers it may then skip the cache while it stays low:
// its bus needs, pending state and resolved value are exactly as last
// observed. The machine's cycle loop uses this to poll only caches
// something happened to.
func (c *Cache) SetNews(word *uint64, mask uint64) { c.news, c.newsBit = word, mask }

// SetWake wires the cache to its bit (mask) of a wake word, which it
// raises when the line of a parked read changes (see Park). A cache
// without one never parks.
func (c *Cache) SetWake(word *uint64, mask uint64) { c.wake, c.wakeBit = word, mask }

// Park reports whether another read of a, of class, would hit and change
// nothing but the counters and the LRU clock, as the read that just hit
// did: the fixed point of a PE spinning on a line until it changes. If so
// the cache records the read, for CreditReadHits, and raises its wake bit
// when a snoop, an injected fault, a Restore or a new probe changes what
// that read would do. A cache with a probe never parks: the probe must
// see every reference.
//
//phase:cpu
func (c *Cache) Park(a bus.Addr, class coherence.Class) bool {
	if c.wake == nil || c.probe != nil || c.Busy() || !c.proto.Cachable(class, coherence.EvRead) {
		return false
	}
	base := c.setBase(a)
	for i := base; i < base+c.cfg.Ways; i++ {
		ln := &c.lines[i]
		if !ln.valid || ln.addr != a {
			continue
		}
		out := c.proto.OnProc(ln.state, ln.aux, coherence.EvRead)
		after := *ln
		after.state, after.aux = out.Next, out.NextAux
		applyDirty(&after, out.Dirty)
		if out.Action != coherence.ActNone || after != *ln {
			return false
		}
		c.spinning, c.spinAddr, c.spinClass, c.spinFrame, c.spinData = true, a, class, i, ln.data
		return true
	}
	return false
}

// Parked returns the address of the read the last Park recorded.
func (c *Cache) Parked() bus.Addr { return c.spinAddr }

// Unpark forgets the parked read.
func (c *Cache) Unpark() { c.spinning = false }

// CreditReadHits makes n repeats of the parked read at once, as n calls
// of Access would have made them before its line changed: the counters,
// the LRU clock, and OnResolve for each.
func (c *Cache) CreditReadHits(n uint64) {
	c.stats.Reads += n
	c.stats.ByClass[int(c.spinClass)&3].Reads += n
	c.stats.ReadHits += n
	if c.stamps != nil {
		c.useClock += n
		c.stamps[c.spinFrame] = c.useClock
	}
	if c.OnResolve != nil {
		for range n {
			c.fire(false, coherence.EvRead, c.spinAddr, 0, c.spinData)
		}
	}
}

// changed raises the wake bit if the snooped line at a is the parked
// read's and no longer equals old, its value before the snoop.
func (c *Cache) changed(a bus.Addr, old line, ln *line) {
	if c.spinning && a == c.spinAddr && *ln != old {
		*c.wake |= c.wakeBit
	}
}

// wakeIfParked raises the wake bit of a parked cache, for a change its
// parked read may see.
func (c *Cache) wakeIfParked() {
	if c.spinning {
		*c.wake |= c.wakeBit
	}
}

// Probe is the cache's reference-stream observation port (internal/mrc
// plugs an online reuse-distance profiler into it). It fires once per
// processor memory reference — reads, writes, and Test-and-Sets — at the
// moment the CPU phase issues the operation, before hit/miss is known,
// so the observed stream equals the workload's operation stream. The
// two-phase Test-and-Set counts once (at its locked read), matching the
// one reference the instruction makes.
//
// The same contract as bus.Injector applies: a nil probe costs exactly
// one pointer test per reference, and the address is passed by value so
// a probe call cannot make the hot path allocate.
type Probe interface {
	// OnRef observes one processor reference. Called from the CPU phase
	// (//phase:cpu); implementations must be allocation-free.
	OnRef(a bus.Addr)
}

// SetProbe installs (or, with nil, removes) the reference-stream probe.
func (c *Cache) SetProbe(p Probe) {
	c.probe = p
	c.wakeIfParked()
}

// Protocol returns the cache's coherence scheme.
func (c *Cache) Protocol() coherence.Protocol { return c.proto }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// setBase returns the index of the first frame of the set a maps to.
func (c *Cache) setBase(a bus.Addr) int { return (int(a) & (c.nsets - 1)) * c.cfg.Ways }

// setOf returns the frames of the set an address maps to.
func (c *Cache) setOf(a bus.Addr) []line {
	base := c.setBase(a)
	return c.lines[base : base+c.cfg.Ways]
}

// lookup returns the line holding addr, or nil.
func (c *Cache) lookup(a bus.Addr) *line {
	set := c.setOf(a)
	for i := range set {
		if set[i].valid && set[i].addr == a {
			return &set[i]
		}
	}
	return nil
}

// Lookup exposes a line's protocol state for diagnostics and the figure
// renderings: it returns the state, the cached value, and whether the
// address is present at all.
func (c *Cache) Lookup(a bus.Addr) (coherence.State, bus.Word, bool) {
	if ln := c.lookup(a); ln != nil {
		return ln.state, ln.data, true
	}
	return coherence.NotPresent, 0, false
}

// Busy reports whether an operation is in flight.
func (c *Cache) Busy() bool { return c.hasPend || c.hasResolved }

// mutated discards the memoized plan and raises the has-news bit. Every
// change plan can see calls it first: a new or finished pending op, an own
// bus completion, a restored or injected line, a snoop on the pending op's
// set (snooped). An idle cache's hit need not: setPend discards the memo.
func (c *Cache) mutated() {
	c.planOK = false
	if c.news != nil {
		*c.news |= c.newsBit
	}
}

// snooped is mutated for a snoop on the frame holding a. plan reads only
// the pending op and its set's frames and stamps, so a snoop elsewhere, or
// while nothing is pending, is no news.
func (c *Cache) snooped(a bus.Addr) {
	if c.hasPend && c.setBase(a) == c.setBase(c.pend.addr) {
		c.mutated()
	}
}

// setPend records p as the in-flight operation.
func (c *Cache) setPend(p pending) {
	c.pend = p
	c.hasPend = true
	c.mutated()
}

// touch updates the line's LRU stamp, finding its frame within its set;
// a direct-mapped cache keeps none.
func (c *Cache) touch(ln *line) {
	if c.stamps == nil {
		return
	}
	base := c.setBase(ln.addr)
	for i := base; i < base+c.cfg.Ways; i++ {
		if &c.lines[i] == ln {
			c.useClock++
			c.stamps[i] = c.useClock
			return
		}
	}
}

// applyDirty folds a DirtyEffect into a line.
func applyDirty(ln *line, d coherence.DirtyEffect) {
	switch d {
	case coherence.DirtySet:
		ln.dirty = true
	case coherence.DirtyClear:
		ln.dirty = false
	case coherence.DirtyKeep:
		// The transition leaves the dirty bit alone.
	}
}

// Access offers a processor read or write. If it completes without the bus
// (a hit the protocol satisfies locally), done is true and value carries
// the read result. Otherwise the operation is left pending; the caller
// must assert a bus slot at WantsBusAddr and feed grants/completions back.
//
//phase:cpu
func (c *Cache) Access(ev coherence.ProcEvent, a bus.Addr, data bus.Word, class coherence.Class) (done bool, value bus.Word) {
	if c.Busy() {
		panic(fmt.Sprintf("cache %d: Access while busy", c.id))
	}
	if c.probe != nil {
		c.probe.OnRef(a)
	}
	cls := &c.stats.ByClass[int(class)&3]
	if ev == coherence.EvRead {
		c.stats.Reads++
		cls.Reads++
	} else {
		c.stats.Writes++
		cls.Writes++
	}
	if !c.proto.Cachable(class, ev) {
		c.stats.Bypasses++
		c.countMiss(cls, ev)
		c.setPend(pending{ev: ev, class: class, addr: a, data: data})
		return false, 0
	}
	if ln := c.lookup(a); ln != nil {
		out := c.proto.OnProc(ln.state, ln.aux, ev)
		if out.Action == coherence.ActNone {
			ln.state, ln.aux = out.Next, out.NextAux
			applyDirty(ln, out.Dirty)
			if ev == coherence.EvWrite {
				ln.data = data
				c.stats.WriteHits++
			} else {
				c.stats.ReadHits++
			}
			c.touch(ln)
			c.fire(false, ev, a, data, ln.data)
			return true, ln.data
		}
	}
	c.countMiss(cls, ev)
	c.setPend(pending{ev: ev, class: class, addr: a, data: data})
	return false, 0
}

func (c *Cache) countMiss(cls *ClassStats, ev coherence.ProcEvent) {
	if ev == coherence.EvRead {
		cls.ReadMisses++
	} else {
		cls.WriteMisses++
	}
}

// fire reports a bound result to the OnResolve hook.
func (c *Cache) fire(rmw bool, ev coherence.ProcEvent, a bus.Addr, data, value bus.Word) {
	if c.OnResolve != nil {
		c.OnResolve(ResolveInfo{RMW: rmw, Ev: ev, Addr: a, Data: data, Value: value})
	}
}

// resolve finishes the pending operation p, binding value as its result.
func (c *Cache) resolve(p *pending, value bus.Word) {
	c.hasPend = false
	c.resolved = value
	c.hasResolved = true
	c.mutated()
	c.fire(p.rmw, p.ev, p.addr, p.data, value)
}

// AccessRMW offers a Test-and-Set of setVal against addr. If the line is
// held in a state where the protocol allows a purely local RMW, it
// completes immediately; otherwise a bus OpRMW is left pending. The value
// delivered on completion is the *old* word (0 means the test succeeded).
//
//phase:cpu
func (c *Cache) AccessRMW(a bus.Addr, setVal bus.Word) (done bool, old bus.Word) {
	if c.Busy() {
		panic(fmt.Sprintf("cache %d: AccessRMW while busy", c.id))
	}
	if c.probe != nil {
		c.probe.OnRef(a)
	}
	c.stats.RMWs++
	if ln := c.lookup(a); ln != nil && c.proto.LocalRMW(ln.state) {
		c.stats.LocalRMWs++
		old = ln.data
		if old == 0 {
			out := c.proto.OnProc(ln.state, ln.aux, coherence.EvWrite)
			// LocalRMW states satisfy writes locally by construction.
			ln.state, ln.aux = out.Next, out.NextAux
			applyDirty(ln, out.Dirty)
			ln.data = setVal
		}
		c.touch(ln)
		c.fire(true, coherence.EvWrite, a, setVal, old)
		return true, old
	}
	c.setPend(pending{ev: coherence.EvWrite, addr: a, data: setVal, rmw: true})
	return false, 0
}

// TryLocalRMW attempts the in-cache Test-and-Set fast path (exclusive
// latest copy); it reports whether it completed, without falling back to
// a bus operation.
//
//phase:cpu
func (c *Cache) TryLocalRMW(a bus.Addr, setVal bus.Word) (done bool, old bus.Word) {
	ln := c.lookup(a)
	if ln == nil || !c.proto.LocalRMW(ln.state) {
		// Not issued: the caller falls back to AccessLockedRead, which
		// probes the reference once.
		return false, 0
	}
	if c.probe != nil {
		c.probe.OnRef(a)
	}
	c.stats.RMWs++
	c.stats.LocalRMWs++
	old = ln.data
	if old == 0 {
		out := c.proto.OnProc(ln.state, ln.aux, coherence.EvWrite)
		ln.state, ln.aux = out.Next, out.NextAux
		applyDirty(ln, out.Dirty)
		ln.data = setVal
	}
	c.touch(ln)
	c.fire(true, coherence.EvWrite, a, setVal, old)
	return true, old
}

// AccessLockedRead issues phase 1 of a two-phase Test-and-Set: the
// paper's non-cachable "read with lock" bus operation. The delivered
// value is the locked word; the caller must follow with
// AccessUnlockWrite.
//
//phase:cpu
func (c *Cache) AccessLockedRead(a bus.Addr) {
	if c.Busy() {
		panic(fmt.Sprintf("cache %d: AccessLockedRead while busy", c.id))
	}
	if c.probe != nil {
		c.probe.OnRef(a)
	}
	c.stats.RMWs++
	c.setPend(pending{ev: coherence.EvRead, addr: a, lockRead: true, bypass: true})
}

// AccessUnlockWrite issues phase 2: the "modified value is stored back
// into the shared memory cell and the lock removed". cached selects the
// successful path (a real write that follows the protocol's write
// transition, taking the line Local under RB) versus the failed path (the
// old value is restored without touching any cache state, matching the
// paper's treatment of a failed Test-and-Set as non-cachable).
//
// The second leg starts at delivery time, which happens in the bus phase
// (a grant completed) or the request-line phase (a local resolution),
// never in the CPU phase.
//
//phase:bus,snoop
func (c *Cache) AccessUnlockWrite(a bus.Addr, v bus.Word, cached bool) {
	if c.Busy() {
		panic(fmt.Sprintf("cache %d: AccessUnlockWrite while busy", c.id))
	}
	c.setPend(pending{ev: coherence.EvWrite, addr: a, data: v, unlock: true, bypass: !cached})
}

// WantsBus reports whether the cache needs a bus grant, and for which
// address (the machine uses the address to pick the bank, Figure 7-1).
// The needed address can change as snooped traffic changes line states;
// callers should re-check after every bus cycle.
//
//phase:snoop
func (c *Cache) WantsBus() (bus.Addr, bool) {
	if !c.hasPend {
		return 0, false
	}
	req, need := c.planCached()
	if !need {
		return 0, false
	}
	return req.Addr, true
}

// NeedsPriority reports whether the pending operation is an interrupted
// read owed an immediate retry.
func (c *Cache) NeedsPriority() bool { return c.hasPend && c.pend.retry }

// PendingString names the in-flight processor operation for diagnostics —
// the machine's watchdog embeds it in StallError so a wedged run reports
// *which* transaction never completed. It is side-effect free (it does
// not run plan), describing the operation rather than the next bus leg.
func (c *Cache) PendingString() string {
	if c.hasResolved {
		return fmt.Sprintf("resolved value=%d awaiting pickup", c.resolved)
	}
	if !c.hasPend {
		return "idle"
	}
	p := &c.pend
	op := "read"
	if p.ev == coherence.EvWrite {
		op = "write"
	}
	switch {
	case p.rmw:
		op = "rmw"
	case p.lockRead:
		op = "locked-read"
	case p.unlock:
		op = "unlock-write"
	}
	s := fmt.Sprintf("%s addr=%d", op, p.addr)
	if p.ev == coherence.EvWrite {
		s += fmt.Sprintf(" data=%d", p.data)
	}
	if p.retry {
		s += " retry"
	}
	if p.bypass {
		s += " bypass"
	}
	return s
}

// planCached returns the memoized plan, recomputing it only after a
// mutation. Safe because plan with unchanged state is deterministic, and
// its only side effects (local resolution) would already have fired on
// the call that populated the memo.
func (c *Cache) planCached() (bus.Request, bool) {
	if !c.planOK {
		c.planReq, c.planNeed, _ = c.plan()
		c.planOK = true
	}
	return c.planReq, c.planNeed
}

// plan derives the bus transaction the pending operation needs right now.
// need=false with resolvedLocally=true means the operation just completed
// without the bus (state changed under us); need=false with
// resolvedLocally=false cannot happen while pend is live.
func (c *Cache) plan() (req bus.Request, need bool, resolvedLocally bool) {
	if !c.hasPend {
		return bus.Request{}, false, false
	}
	p := &c.pend
	if p.rmw {
		return c.planRMW(p)
	}
	if p.bypass || !c.proto.Cachable(p.class, p.ev) {
		op := bus.OpRead
		if p.ev == coherence.EvWrite {
			op = bus.OpWrite
		}
		return bus.Request{Source: c.id, Op: op, Addr: p.addr, Data: p.data,
			Retry: p.retry, Lock: p.lockRead, Unlock: p.unlock}, true, false
	}
	ln := c.lookup(p.addr)
	state, aux := coherence.Invalid, uint8(0)
	if ln != nil {
		state, aux = ln.state, ln.aux
	}
	out := c.proto.OnProc(state, aux, p.ev)
	if out.Action == coherence.ActNone && p.unlock {
		// The protocol could satisfy this write in-cache (e.g. Illinois's
		// silent Exclusive upgrade), but an unlocking write must reach
		// the bus regardless — the lock register is waiting on it.
		return bus.Request{Source: c.id, Op: bus.OpWrite, Addr: p.addr, Data: p.data, Unlock: true}, true, false
	}
	if out.Action == coherence.ActNone {
		// A snooped transaction satisfied the access while we waited
		// (e.g. RWB snarfed the value we were about to read).
		c.completeLocally(ln, out)
		return bus.Request{}, false, true
	}
	// Allocation: if the line is absent and will be installed, the victim
	// frame may need a write-back first.
	if ln == nil && !out.NoAllocate {
		if victim := c.victim(p.addr); victim.valid && c.proto.WritebackOnEvict(victim.state, victim.dirty) {
			return bus.Request{Source: c.id, Op: bus.OpWrite, Addr: victim.addr, Data: victim.data}, true, false
		}
	}
	switch out.Action {
	case coherence.ActRead, coherence.ActReadThenWrite:
		return bus.Request{Source: c.id, Op: bus.OpRead, Addr: p.addr, Retry: p.retry}, true, false
	case coherence.ActWrite:
		return bus.Request{Source: c.id, Op: bus.OpWrite, Addr: p.addr, Data: p.data, Unlock: p.unlock}, true, false
	case coherence.ActInv:
		return bus.Request{Source: c.id, Op: bus.OpInv, Addr: p.addr, Unlock: p.unlock}, true, false
	default:
		// ActNone was handled above as an in-cache completion.
		panic(fmt.Sprintf("cache %d: unplannable action %v", c.id, out.Action))
	}
}

func (c *Cache) planRMW(p *pending) (bus.Request, bool, bool) {
	ln := c.lookup(p.addr)
	if ln != nil && c.proto.LocalRMW(ln.state) {
		// The line turned exclusive while we waited; finish in-cache.
		c.stats.LocalRMWs++
		c.mutated()
		old := ln.data
		if old == 0 {
			out := c.proto.OnProc(ln.state, ln.aux, coherence.EvWrite)
			ln.state, ln.aux = out.Next, out.NextAux
			applyDirty(ln, out.Dirty)
			ln.data = p.data
		}
		c.touch(ln)
		c.resolve(p, old)
		return bus.Request{}, false, true
	}
	state, aux := coherence.Invalid, uint8(0)
	if ln != nil {
		state, aux = ln.state, ln.aux
	}
	next, _, broadcast := c.proto.RMWSuccess(state, aux)
	// If success will install the line, a victim write-back may be owed.
	if ln == nil && next != coherence.Invalid {
		if victim := c.victim(p.addr); victim.valid && c.proto.WritebackOnEvict(victim.state, victim.dirty) {
			return bus.Request{Source: c.id, Op: bus.OpWrite, Addr: victim.addr, Data: victim.data}, true, false
		}
	}
	successOp := bus.OpWrite
	if broadcast == coherence.ActInv {
		successOp = bus.OpInv
	}
	return bus.Request{Source: c.id, Op: bus.OpRMW, Addr: p.addr, Data: p.data, SuccessOp: successOp}, true, false
}

// completeLocally finishes the pending op against a (possibly nil) line.
func (c *Cache) completeLocally(ln *line, out coherence.ProcOutcome) {
	p := &c.pend
	var v bus.Word
	c.mutated()
	if ln != nil {
		ln.state, ln.aux = out.Next, out.NextAux
		applyDirty(ln, out.Dirty)
		if p.ev == coherence.EvWrite {
			ln.data = p.data
			c.stats.WriteHits++
		} else {
			c.stats.ReadHits++
		}
		c.touch(ln)
		v = ln.data
	}
	c.resolve(p, v)
}

// victim returns the frame that would hold addr: the only one when the
// cache is direct-mapped, else an invalid way or the least-recently-used
// one. It never returns the frame of addr itself (the caller checked the
// address is absent).
func (c *Cache) victim(a bus.Addr) *line {
	base := c.setBase(a)
	if c.stamps == nil {
		return &c.lines[base]
	}
	best := base
	for i := base; i < base+c.cfg.Ways; i++ {
		if !c.lines[i].valid {
			return &c.lines[i]
		}
		if c.stamps[i] < c.stamps[best] {
			best = i
		}
	}
	return &c.lines[best]
}

// install places addr into its set, evicting the LRU way. The victim was
// already written back if the protocol required it (plan schedules the
// write-back transaction before the installing one).
func (c *Cache) install(a bus.Addr, st coherence.State, aux uint8, dirty bool, data bus.Word) *line {
	ln := c.victim(a)
	if ln.valid {
		c.stats.Evictions++
		c.pres.Remove(ln.addr, c.id)
	}
	*ln = line{valid: true, addr: a, state: st, aux: aux, dirty: dirty, data: data}
	c.pres.Add(a, c.id)
	c.touch(ln)
	return ln
}

// BusGrant implements bus.Requester: the arbiter granted us the bus
// serving (bank, banks); supply the transaction or withdraw.
//
//phase:bus
func (c *Cache) BusGrant(bank, banks int) (bus.Request, bool) {
	req, need := c.planCached()
	if !need {
		return bus.Request{}, false
	}
	if banks > 1 && int(req.Addr)&(banks-1) != bank {
		// Our next transaction belongs to another bank; withdraw here.
		return bus.Request{}, false
	}
	return req, true
}

// BusCompleted folds the result of our own granted transaction back into
// the cache and reports whether the pending operation's next bus leg must
// be granted ahead of ordinary requests: the re-read of a killed read
// ("retried immediately"), or the write leg of a fetch-then-write miss,
// which would otherwise livelock under heavy invalidation traffic (the
// fetched line can be invalidated before the write ever wins
// arbitration). A false result means the operation either completed
// (TakeResolved yields its value) or re-arbitrates normally.
//
//phase:bus
func (c *Cache) BusCompleted(req bus.Request, res bus.Result) (urgent bool) {
	if !c.hasPend {
		panic(fmt.Sprintf("cache %d: BusCompleted with nothing pending", c.id))
	}
	c.mutated()
	p := &c.pend
	// A transaction for a different address is a victim write-back: the
	// frame is freed (an eviction) and the pending miss continues.
	if req.Addr != p.addr {
		if ln := c.lookup(req.Addr); ln != nil {
			c.stats.Writebacks++
			c.stats.Evictions++
			ln.valid = false
			ln.dirty = false
			c.pres.Remove(req.Addr, c.id)
		}
		return false
	}
	if p.rmw {
		c.rmwCompleted(p, res)
		return false
	}
	switch req.Op {
	case bus.OpRead:
		if res.Killed {
			// Interrupted by the Local owner; "retried immediately".
			p.retry = true
			c.stats.Retries++
			return true
		}
		return c.readCompleted(p, res)
	case bus.OpWrite:
		c.writeCompleted(p)
		return false
	case bus.OpInv:
		c.invCompleted(p)
		return false
	default:
		// OpRMW completions take the rmwCompleted path above.
		panic(fmt.Sprintf("cache %d: unexpected completed op %v", c.id, req.Op))
	}
}

// readCompleted reports whether the fetch was the read part of a
// fetch-then-write miss, whose write part is urgent.
func (c *Cache) readCompleted(p *pending, res bus.Result) (urgent bool) {
	if p.bypass || !c.proto.Cachable(p.class, p.ev) {
		// Uncached (or locked) read: deliver without installing.
		c.resolve(p, res.Data)
		return false
	}
	p.retry = false // the (possibly retried) read part is done
	ln := c.lookup(p.addr)
	state, aux := coherence.Invalid, uint8(0)
	if ln != nil {
		state, aux = ln.state, ln.aux
	}
	out := c.proto.OnProc(state, aux, coherence.EvRead)
	// Install (or refresh) the line with the fetched word. A line still
	// Invalid takes the protocol's read-miss target for the bus's shared
	// signal (Illinois installs Exclusive when it stayed quiet); one that
	// was snarfed meanwhile follows its own CR entry.
	next := out.Next
	if state == coherence.Invalid {
		next = c.proto.ReadMissTarget(res.SharedLine)
	}
	if ln == nil {
		ln = c.install(p.addr, next, out.NextAux, false, res.Data)
	} else {
		ln.state, ln.aux = next, out.NextAux
		applyDirty(ln, out.Dirty)
		ln.data = res.Data
		c.touch(ln)
	}
	if p.ev == coherence.EvWrite {
		// Fetch-then-write miss: the read part is done; the write part
		// follows and must win the bus before snooped invalidations can
		// undo the fetch.
		return true
	}
	c.resolve(p, res.Data)
	return false
}

func (c *Cache) writeCompleted(p *pending) {
	if p.bypass || !c.proto.Cachable(p.class, p.ev) {
		c.resolve(p, p.data)
		return
	}
	ln := c.lookup(p.addr)
	state, aux := coherence.Invalid, uint8(0)
	if ln != nil {
		state, aux = ln.state, ln.aux
	}
	out := c.proto.OnProc(state, aux, coherence.EvWrite)
	if out.NoAllocate {
		if ln != nil {
			// Write-through no-allocate protocols keep an existing copy
			// coherent on a write hit.
			ln.state, ln.aux = out.Next, out.NextAux
			applyDirty(ln, out.Dirty)
			ln.data = p.data
			c.touch(ln)
		}
	} else if ln == nil {
		ln = c.install(p.addr, out.Next, out.NextAux, out.Dirty == coherence.DirtySet, p.data)
	} else {
		ln.state, ln.aux = out.Next, out.NextAux
		applyDirty(ln, out.Dirty)
		ln.data = p.data
		c.touch(ln)
	}
	c.resolve(p, p.data)
}

func (c *Cache) invCompleted(p *pending) {
	ln := c.lookup(p.addr)
	if ln == nil {
		panic(fmt.Sprintf("cache %d: BI completed for absent line %d", c.id, p.addr))
	}
	out := c.proto.OnProc(ln.state, ln.aux, coherence.EvWrite)
	ln.state, ln.aux = out.Next, out.NextAux
	applyDirty(ln, out.Dirty)
	ln.data = p.data
	c.touch(ln)
	c.resolve(p, p.data)
}

func (c *Cache) rmwCompleted(p *pending, res bus.Result) {
	old := res.Data
	if res.RMWSuccess {
		ln := c.lookup(p.addr)
		state, aux := coherence.Invalid, uint8(0)
		if ln != nil {
			state, aux = ln.state, ln.aux
		}
		next, nextAux, _ := c.proto.RMWSuccess(state, aux)
		if next != coherence.Invalid {
			// The locked transaction updated memory, so the line is clean
			// even when the broadcast was an invalidate.
			if ln == nil {
				c.install(p.addr, next, nextAux, false, p.data)
			} else {
				ln.state, ln.aux = next, nextAux
				ln.dirty = false
				ln.data = p.data
				c.touch(ln)
			}
		} else if ln != nil {
			// Protocols that do not retain RMW targets drop the copy.
			ln.valid = false
			c.pres.Remove(p.addr, c.id)
		}
	}
	c.resolve(p, old)
}

// TakeResolved delivers and clears a completed operation's value. The
// machine polls it at the end of the bus phase and of the request-line
// phase, the two places a value can have bound.
//
//phase:bus,snoop
func (c *Cache) TakeResolved() (bus.Word, bool) {
	if !c.hasResolved {
		return 0, false
	}
	c.hasResolved = false
	return c.resolved, true
}

// HasCopy implements bus.CopyHolder: the cache drives the shared line
// when it holds a valid copy.
//
//phase:bus
func (c *Cache) HasCopy(a bus.Addr) bool {
	ln := c.lookup(a)
	return ln != nil && ln.state != coherence.Invalid
}

// --- snoop port (bus.Snooper) ---

// SnoopRead implements bus.Snooper.
//
//phase:bus
func (c *Cache) SnoopRead(a bus.Addr, source int) (bool, bus.Word) {
	ln := c.lookup(a)
	if ln == nil {
		return false, 0
	}
	c.snooped(a)
	old := *ln
	out := c.proto.OnSnoop(ln.state, ln.aux, ln.dirty, coherence.SnBusRead)
	data := ln.data
	ln.state, ln.aux = out.Next, out.NextAux
	applyDirty(ln, out.Dirty)
	c.changed(a, old, ln)
	if out.Inhibit {
		c.stats.FlushSupplied++
		return true, data
	}
	return false, 0
}

// SnoopRMWRead implements bus.Snooper.
//
//phase:bus
func (c *Cache) SnoopRMWRead(a bus.Addr, source int) (bool, bus.Word) {
	ln := c.lookup(a)
	if ln == nil {
		return false, 0
	}
	flush, next, d := c.proto.RMWFlush(ln.state, ln.dirty)
	if !flush {
		return false, 0
	}
	c.snooped(a)
	old := *ln
	data := ln.data
	ln.state = next
	applyDirty(ln, d)
	c.changed(a, old, ln)
	c.stats.RMWFlushes++
	return true, data
}

// ObserveWrite implements bus.Snooper.
//
//phase:bus
func (c *Cache) ObserveWrite(op bus.Op, a bus.Addr, d bus.Word, source int) {
	ln := c.lookup(a)
	if ln == nil {
		return
	}
	c.snooped(a)
	ev := coherence.SnBusWrite
	if op == bus.OpInv {
		ev = coherence.SnBusInv
	}
	old := *ln
	out := c.proto.OnSnoop(ln.state, ln.aux, ln.dirty, ev)
	ln.state, ln.aux = out.Next, out.NextAux
	applyDirty(ln, out.Dirty)
	if out.TakeData {
		ln.data = d
		c.stats.Snarfs++
	}
	c.changed(a, old, ln)
	if old.state != coherence.Invalid && ln.state == coherence.Invalid {
		c.stats.InvalidatedBy++
	}
}

// ObserveReadData implements bus.Snooper.
//
//phase:bus
func (c *Cache) ObserveReadData(a bus.Addr, d bus.Word, source int) {
	ln := c.lookup(a)
	if ln == nil {
		return
	}
	c.snooped(a)
	old := *ln
	out := c.proto.OnSnoop(ln.state, ln.aux, ln.dirty, coherence.SnReadData)
	ln.state, ln.aux = out.Next, out.NextAux
	applyDirty(ln, out.Dirty)
	if out.TakeData {
		ln.data = d
		c.stats.Snarfs++
	}
	c.changed(a, old, ln)
}

// --- fault-injection port (driven by internal/fault) ---

// InjectInvalidate spuriously drops the line holding a, modeling a tag or
// state-bit upset: the frame goes Invalid with no write-back, so a dirty
// Local value is silently lost. It reports whether a valid line was hit.
// The presence table is kept exact, and the plan memo is discarded, so the
// perturbed cache behaves exactly as if it never held the line.
func (c *Cache) InjectInvalidate(a bus.Addr) bool {
	ln := c.lookup(a)
	if ln == nil {
		return false
	}
	c.mutated()
	c.wakeIfParked()
	ln.valid = false
	ln.dirty = false
	c.pres.Remove(a, c.id)
	c.stats.FaultInvalidates++
	return true
}

// InjectStale XORs mask into the cached data of the line holding a,
// modeling a data-array bit upset: the state machinery is untouched, only
// the value the cache will serve (or write back) is wrong. It reports
// whether a valid line was hit.
func (c *Cache) InjectStale(a bus.Addr, mask bus.Word) bool {
	ln := c.lookup(a)
	if ln == nil {
		return false
	}
	c.mutated()
	c.wakeIfParked()
	ln.data ^= mask
	c.stats.FaultStaleFlips++
	return true
}

// Entry is one valid line as Entries lists it and Restore writes it.
type Entry struct {
	Addr  bus.Addr
	State coherence.State
	Aux   uint8
	Dirty bool
	Data  bus.Word
}

// Entries lists all valid lines in frame order (set by set, way by way):
// deterministic for a given run, but not ascending address order; callers
// sort if they need that.
func (c *Cache) Entries() []Entry {
	var out []Entry
	for i := range c.lines {
		if ln := &c.lines[i]; ln.valid {
			out = append(out, Entry{Addr: ln.addr, State: ln.state, Aux: ln.aux, Dirty: ln.dirty, Data: ln.data})
		}
	}
	return out
}

// Restore is the inverse of Entries: it makes the cache hold e, in place
// if the address is present and otherwise in the frame a miss would take,
// whose occupant is dropped without a write-back. The model checker sets up
// each product state with it. The presence table, the plan memo and the
// has-news bit are kept exact, as for any other change to a line. The cache
// must be idle.
func (c *Cache) Restore(e Entry) {
	if c.Busy() {
		panic(fmt.Sprintf("cache %d: Restore while busy", c.id))
	}
	c.mutated()
	c.wakeIfParked()
	if ln := c.lookup(e.Addr); ln != nil {
		ln.state, ln.aux, ln.dirty, ln.data = e.State, e.Aux, e.Dirty, e.Data
		return
	}
	c.install(e.Addr, e.State, e.Aux, e.Dirty, e.Data)
}
