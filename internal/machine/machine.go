// Package machine assembles the paper's multiprocessor: N processing
// elements, each with a private snooping cache, connected to shared memory
// by one or more shared buses (Sections 2 and 7). It drives the whole
// system at bus-cycle granularity and embeds a sequential-consistency
// oracle that mechanically checks the Section 4 theorem — "Each PE always
// reads the latest value written" — against the serialization order the
// proof constructs (bus order, with in-cache operations interleaved at
// their completion cycles).
package machine

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/memory"
	"repro/internal/processor"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Config describes a machine.
type Config struct {
	// Protocol is the coherence scheme all caches run. Defaults to RB.
	Protocol coherence.Protocol
	// CacheLines per private cache (power of two). Defaults to 1024.
	CacheLines int
	// CacheWays is the associativity (default 1, the paper's
	// direct-mapped organization).
	CacheWays int
	// Buses is the number of interleaved shared buses (power of two,
	// default 1; Figure 7-1 uses 2).
	Buses int
	// MemLatency is extra bus-hold cycles per memory-served transaction.
	MemLatency int
	// CheckConsistency enables the read-latest oracle on every retirement.
	CheckConsistency bool
	// TwoPhaseRMW selects the paper's textual Test-and-Set realization —
	// a locked bus read, a processor test, and an unlocking write-back —
	// instead of the fused single-transaction RMW the Figure 6 matrices
	// assume. It costs two bus transactions per attempt (failed attempts
	// included), making the TTS optimization even more valuable.
	TwoPhaseRMW bool
	// StallCycles, when nonzero, aborts the run with a StallError if any
	// PE stays blocked on one memory operation for more than this many
	// cycles — the symptom of a protocol or arbitration deadlock. In a
	// correct machine a blocked PE always progresses within a few cycles
	// times the contention, so generous values (say 100000) never fire
	// spuriously; fault-injection runs use tighter values so a wedged
	// transaction is *detected* rather than spun on forever.
	StallCycles uint64
}

func (c Config) withDefaults() Config {
	if c.Protocol == nil {
		c.Protocol = coherence.New(coherence.KindRB)
	}
	if c.CacheLines == 0 {
		c.CacheLines = 1024
	}
	if c.CacheWays == 0 {
		c.CacheWays = 1
	}
	if c.Buses == 0 {
		c.Buses = 1
	}
	return c
}

// ConsistencyError reports an oracle violation: a processor read a value
// other than the latest one written in serialization order.
type ConsistencyError struct {
	Cycle    uint64
	PE       int
	Op       workload.Op
	Got      bus.Word
	Expected bus.Word
}

func (e *ConsistencyError) Error() string {
	return fmt.Sprintf("machine: consistency violation at cycle %d: PE%d %v addr %d read %d, latest written is %d",
		e.Cycle, e.PE, e.Op.Kind, e.Op.Addr, e.Got, e.Expected)
}

// StallError reports a watchdog trip: a processor made no progress on one
// blocked memory operation for the configured number of cycles.
type StallError struct {
	Cycle    uint64 // cycle the watchdog tripped (the wedging was noticed)
	PE       int
	Since    uint64 // cycle the operation was issued
	Pending  string // the cache's pending-transaction view, for diagnosis
	BusState string // per-bank arbiter and lock-register snapshot at trip time
}

func (e *StallError) Error() string {
	s := fmt.Sprintf("machine: watchdog: PE%d blocked since cycle %d, wedged at cycle %d; cache state: %s",
		e.PE, e.Since, e.Cycle, e.Pending)
	if e.BusState != "" {
		s += "; bus state: " + e.BusState
	}
	return s
}

// pristineMem interposes on the bus's memory port to record each word's
// value before its first modification. The oracle needs it: a read of a
// never-(retired-)written address must match the address's pristine
// content, but by the time the retirement is checked the very transaction
// being retired may already have modified memory (an RMW writes its lock
// within the same bus cycle). The record is itself a dense memory.Memory
// — its written bitmap is the "seen" set — so the interposed write path
// stays map-free and allocation-free in steady state.
type pristineMem struct {
	*memory.Memory
	init *memory.Memory // value of each address before its first bus write
}

// WriteWord implements bus.Memory, recording the pristine value first.
//
//phase:bus
func (p *pristineMem) WriteWord(a bus.Addr, w bus.Word) {
	if !p.init.Written(a) {
		p.init.Poke(a, p.Peek(a))
	}
	p.Memory.WriteWord(a, w)
}

// pristine returns the address's value from before any bus write touched
// it.
func (p *pristineMem) pristine(a bus.Addr) bus.Word {
	if p.init.Written(a) {
		return p.init.Peek(a)
	}
	return p.Peek(a)
}

// Machine is the assembled multiprocessor.
type Machine struct {
	cfg    Config
	mem    *pristineMem
	buses  *bus.Set
	caches []*cache.Cache
	procs  []*processor.Processor
	agents []workload.Agent

	// oracle is the read-latest oracle's view of memory: the written
	// bitmap marks addresses some retired write has touched, the stored
	// word is the latest such value in serialization order. A dense store
	// rather than a map so oracle-on runs stay allocation-free too.
	oracle *memory.Memory
	// slotBank tracks, per PE, which bank its request slot is asserted on
	// (-1 none); only the request-line phase moves slots.
	//phase:snoop
	slotBank []int
	cycle    uint64
	// err latches the first violation; the oracle binds values in every
	// phase, so any phase may set it.
	//phase:any
	err error

	// issueCycle stamps are set at issue (CPU phase, or at the delivery
	// that starts the second leg of a two-phase Test-and-Set) and cleared
	// at delivery (bus or snoop phase).
	//phase:any
	issueCycle []uint64 // per PE: cycle its in-flight op was issued (0 = none)
	// nextWatch is a lower bound on the first cycle the watchdog can trip;
	// Step scans issueCycle only when the clock reaches it.
	nextWatch uint64
	missLat   stats.Histogram

	// The active sets, one bit per PE, that keep a cycle's host cost
	// proportional to what happened in it. news holds the caches whose bus
	// needs may have changed since their last request-line pass (the cache
	// raises the bit through cache.SetNews, from any phase; snoopPhase
	// lowers it).
	// runnable holds the PEs the CPU phase must visit: a PE leaves when it
	// blocks or halts and returns at delivery.
	//phase:any
	news []uint64
	//phase:any
	runnable []uint64
	// A blocked PE's StallCycles are credited in one add when it unblocks:
	// cpuDone counts completed CPU phases and stallFrom[i] is its value when
	// PE i's uncredited stall began, so the stall so far is their difference
	// (a bus-phase delivery in cycle d precedes d's CPU phase, a snoop-phase
	// one follows it). Metrics adds the in-progress part.
	//phase:cpu
	cpuDone uint64
	//phase:any
	stallFrom []uint64

	dirtyOwners map[bus.Addr]int // VerifyFinalMemory scratch, reused across calls
}

// New builds a machine running one agent per processing element.
func New(cfg Config, agents []workload.Agent) (*Machine, error) {
	m := &Machine{}
	if err := m.build(cfg, agents); err != nil {
		return nil, err
	}
	return m, nil
}

// build assigns every field of m as a fresh machine for cfg and agents.
// It is the machine's only constructor: the closures it wires into the
// caches capture m itself, so a rebuilt machine reports to the same
// receiver its callers hold.
func (m *Machine) build(cfg Config, agents []workload.Agent) error {
	cfg = cfg.withDefaults()
	if len(agents) == 0 {
		return fmt.Errorf("machine: no agents")
	}
	words := (len(agents) + 63) / 64
	*m = Machine{
		cfg:        cfg,
		mem:        &pristineMem{Memory: memory.New(), init: memory.New()},
		agents:     agents,
		oracle:     memory.New(),
		caches:     make([]*cache.Cache, len(agents)),
		procs:      make([]*processor.Processor, len(agents)),
		slotBank:   make([]int, len(agents)),
		issueCycle: make([]uint64, len(agents)),
		news:       make([]uint64, words),
		runnable:   make([]uint64, words),
		stallFrom:  make([]uint64, len(agents)),
	}
	m.buses = bus.NewSet(m.mem, cfg.Buses)
	m.buses.SetMemLatency(cfg.MemLatency)
	for i, agent := range agents {
		c, err := cache.New(i, cfg.Protocol, cache.Config{Lines: cfg.CacheLines, Ways: cfg.CacheWays})
		if err != nil {
			return err
		}
		if cfg.CheckConsistency {
			pe := i
			c.OnResolve = func(info cache.ResolveInfo) { m.checkResolve(pe, info) }
		}
		c.SetNews(&m.news[i>>6], 1<<(i&63))
		// Attaching hands the cache the buses' shared holder table, so each
		// transaction snoops only the caches holding its address.
		m.buses.Attach(i, c)
		m.buses.AttachRequester(i, c)
		m.caches[i] = c
		m.procs[i] = processor.New(i, agent, c)
		m.procs[i].SetTwoPhaseRMW(cfg.TwoPhaseRMW)
		m.slotBank[i] = -1
		m.runnable[i>>6] |= 1 << (i & 63)
	}
	return nil
}

// Reset rebuilds the machine in place with its agents re-seeded from
// seed, which every agent must support (workload.Reseeder).
//
// Deprecated: use New. The method stays only because the frozen
// benchmark/ module calls it; ROADMAP direction 1 deletes it.
func (m *Machine) Reset(seed uint64) error {
	for i, a := range m.agents {
		if _, ok := a.(workload.Reseeder); !ok {
			return fmt.Errorf("machine: agent %d (%T) does not implement workload.Reseeder; use ResetWith", i, a)
		}
	}
	for _, a := range m.agents {
		a.(workload.Reseeder).Reseed(seed)
	}
	return m.build(m.cfg, m.agents)
}

// ResetWith rebuilds the machine in place around agents, one per PE.
//
// Deprecated: use New. The method stays only because the frozen
// benchmark/ module calls it; ROADMAP direction 1 deletes it.
func (m *Machine) ResetWith(agents []workload.Agent) error {
	if len(agents) != len(m.procs) {
		return fmt.Errorf("machine: ResetWith got %d agents for a %d-PE machine", len(agents), len(m.procs))
	}
	return m.build(m.cfg, agents)
}

// MustNew is New panicking on error.
func MustNew(cfg Config, agents []workload.Agent) *Machine {
	m, err := New(cfg, agents)
	if err != nil {
		panic(err)
	}
	return m
}

// Memory returns the shared main memory.
func (m *Machine) Memory() *memory.Memory { return m.mem.Memory }

// Buses returns the shared bus set.
func (m *Machine) Buses() *bus.Set { return m.buses }

// Cache returns PE i's private cache.
func (m *Machine) Cache(i int) *cache.Cache { return m.caches[i] }

// Proc returns PE i.
func (m *Machine) Proc(i int) *processor.Processor { return m.procs[i] }

// Processors returns the PE count.
func (m *Machine) Processors() int { return len(m.procs) }

// Cycle returns the number of cycles executed.
func (m *Machine) Cycle() uint64 { return m.cycle }

// Err returns the first consistency violation, if any.
func (m *Machine) Err() error { return m.err }

// Done reports whether every PE has halted and no cache work is in flight.
func (m *Machine) Done() bool {
	for i, p := range m.procs {
		if !p.Halted() || m.caches[i].Busy() {
			return false
		}
	}
	return true
}

// Step executes one bus cycle: bus phase, completion deliveries, CPU
// phase, and request-line management. It returns the first consistency
// violation encountered (and remembers it; subsequent Steps keep failing).
//
// Each phase is its own method carrying a //phase: annotation, so
// phaseaudit can prove that state owned by one phase is never mutated
// from another — the static precondition for running the phases of
// different bus banks concurrently. The watchdog stays here: it runs
// between cycles, outside any phase.
func (m *Machine) Step() error {
	if m.err != nil {
		return m.err
	}
	m.cycle++
	m.busPhase()
	m.cpuPhase()
	m.snoopPhase()
	if m.cfg.StallCycles > 0 && m.cycle >= m.nextWatch && m.err == nil {
		m.watchdog()
	}
	return m.err
}

// watchdog trips on a PE stuck on one operation for more than StallCycles
// — a machine bug or, in a fault-injection run, a detected fault — and
// otherwise moves nextWatch to the earliest cycle a PE blocked now could
// trip. The bound holds until then without another scan: an operation
// issued later trips later than that, and a delivery only removes a
// candidate.
func (m *Machine) watchdog() {
	m.nextWatch = m.cycle + m.cfg.StallCycles + 1
	for i, since := range m.issueCycle {
		if since == 0 {
			continue
		}
		if m.cycle-since > m.cfg.StallCycles {
			addr, wants := m.caches[i].WantsBus()
			m.err = &StallError{
				Cycle: m.cycle, PE: i, Since: since,
				Pending: fmt.Sprintf("%s (wantsBus=%v addr=%d priority=%v)",
					m.caches[i].PendingString(), wants, addr, m.caches[i].NeedsPriority()),
				BusState: m.busStateDump(),
			}
			return
		}
		m.nextWatch = min(m.nextWatch, since+m.cfg.StallCycles+1)
	}
}

// busPhase is phase 1 of the cycle: each bank executes at most one
// transaction. The oracle check happens inside the cache's OnResolve hook
// at the moment the value binds (possibly *within* the Tick, when a grant
// is withdrawn because a snooped write already satisfied the operation);
// here we only deliver bound values back to their processors.
//
//phase:bus
func (m *Machine) busPhase() {
	for _, g := range m.buses.Tick() {
		if g.Req.Source >= len(m.caches) {
			// The requester registry is open: a directly attached device
			// (a test harness wedge, say) can win bus grants too, and its
			// completions are not cache completions.
			continue
		}
		c := m.caches[g.Req.Source]
		switch c.BusCompleted(g.Req, g.Res) {
		case cache.ProgressRetry, cache.ProgressMoreUrgent:
			m.buses.PrioritySlot(g.Req.Addr, g.Req.Source)
		case cache.ProgressDone, cache.ProgressMore:
			// Done delivers below; More re-arbitrates normally.
		}
		if v, ok := c.TakeResolved(); ok {
			m.deliver(g.Req.Source, v)
		}
	}
}

// cpuPhase is phase 2 of the cycle: every runnable PE issues one operation
// (or burns a compute cycle); in-cache hits bind (and are oracle-checked
// via OnResolve) here, after this cycle's bus transactions. A PE that
// blocks or halts leaves the runnable set: there is nothing to do for it
// until deliver brings it back.
//
//phase:cpu
func (m *Machine) cpuPhase() {
	for k, word := range m.runnable {
		for ; word != 0; word &= word - 1 {
			i := k<<6 + bits.TrailingZeros64(word)
			p := m.procs[i]
			p.CPUPhase()
			switch p.Status() {
			case processor.StatusBlocked:
				m.runnable[k] &^= 1 << (i & 63)
				m.issueCycle[i] = m.cycle
				m.stallFrom[i] = m.cycle
			case processor.StatusHalted:
				m.runnable[k] &^= 1 << (i & 63)
			case processor.StatusReady, processor.StatusComputing:
				// Still runnable next cycle.
			}
		}
	}
	m.cpuDone++
}

// snoopPhase is phase 3 of the cycle — request-line management: assert or
// deassert each cache's bus-request lines to match its needs. Planning can
// resolve an operation without the bus (a snooped write satisfied it);
// such resolutions bind their value now and are delivered at the end of
// the cycle.
//
// Only caches in the has-news set are visited. Nothing their plans read
// changed in the others (a snoop on another set, or an idle cache's hit,
// is no news), so their bus needs are as last asserted (the bus itself
// re-asserts a stalled or dropped grant's slot), they cannot have resolved
// anything, and an unchanged priority claim needs no action — the skip is
// exactly the no-op the full pass would have performed. With many PEs most
// caches are idle or blocked most cycles, and the cycle loop touches only
// the ones with news.
//
//phase:snoop
func (m *Machine) snoopPhase() {
	for k, word := range m.news {
		for ; word != 0; word &= word - 1 {
			i := k<<6 + bits.TrailingZeros64(word)
			c := m.caches[i]
			if c.NeedsPriority() {
				// Priority slot already asserted at interrupt time.
				m.news[k] &^= 1 << (i & 63)
				continue
			}
			if addr, want := c.WantsBus(); want {
				bank := m.buses.BankOf(addr)
				if m.slotBank[i] != bank && m.slotBank[i] >= 0 {
					m.buses.CancelSlot(i)
				}
				m.buses.RequestSlot(addr, i)
				m.slotBank[i] = bank
			} else if m.slotBank[i] >= 0 {
				m.buses.CancelSlot(i)
				m.slotBank[i] = -1
			}
			// WantsBus may have resolved the operation locally, which is
			// news already acted on, so the bit drops after it. A delivery
			// can start the next leg of a two-phase Test-and-Set (a new
			// pending op) and raise it again; the next cycle's pass picks
			// that up.
			m.news[k] &^= 1 << (i & 63)
			if v, ok := c.TakeResolved(); ok {
				m.deliver(i, v)
			}
		}
	}
}

// busStateDump renders each bank's arbiter and lock-register state for the
// watchdog's StallError: which sources are still waiting and who, if
// anyone, wedged the lock.
func (m *Machine) busStateDump() string {
	var sb strings.Builder
	for i := 0; i < m.buses.Len(); i++ {
		b := m.buses.Bus(i)
		if i > 0 {
			sb.WriteString(" | ")
		}
		fmt.Fprintf(&sb, "bus%d: cycle=%d pending=%d lock=", i, b.Cycle(), b.PendingLen())
		if holder, addr := b.Locked(); holder == -1 {
			sb.WriteString("free")
		} else {
			fmt.Fprintf(&sb, "PE%d@addr%d", holder, addr)
		}
	}
	return sb.String()
}

// deliver completes PE i's blocked operation, recording its miss latency
// (cycles from issue to delivery inclusive) and crediting the CPU phases
// it sat out. Deliveries happen from the bus phase (a grant completed) and
// the snoop phase (planning resolved the operation without the bus), never
// from the CPU phase. A delivery that starts the second leg of a two-phase
// Test-and-Set leaves the PE blocked: that leg is stamped as issued in the
// next CPU phase, which the PE sits out like any other.
//
//phase:bus,snoop
func (m *Machine) deliver(i int, v bus.Word) {
	if start := m.issueCycle[i]; start > 0 {
		m.missLat.Observe(m.cycle - start + 1)
	}
	p := m.procs[i]
	p.CreditStall(m.cpuDone - m.stallFrom[i])
	p.Deliver(v)
	if p.Status() == processor.StatusBlocked {
		m.issueCycle[i] = m.cpuDone + 1
		m.stallFrom[i] = m.cpuDone
		return
	}
	m.issueCycle[i] = 0
	m.runnable[i>>6] |= 1 << (i & 63)
}

// checkResolve folds one bound operation into the oracle, at its binding
// (serialization) point. It is invoked through the cache's OnResolve hook,
// which can fire from any phase (bus grants, snoop-planning resolutions,
// CPU-phase cache hits).
//
//phase:any
func (m *Machine) checkResolve(pe int, info cache.ResolveInfo) {
	a := info.Addr
	switch {
	case info.RMW:
		op := workload.TestSet(a, info.Data)
		if exp := m.latest(a); info.Value != exp && m.err == nil {
			m.err = &ConsistencyError{Cycle: m.cycle, PE: pe, Op: op, Got: info.Value, Expected: exp}
		}
		if info.Value == 0 {
			m.oracle.Poke(a, info.Data)
		}
	case info.Ev == coherence.EvWrite:
		m.oracle.Poke(a, info.Data)
	default:
		op := workload.Read(a, coherence.ClassUnknown)
		if exp := m.latest(a); info.Value != exp && m.err == nil {
			m.err = &ConsistencyError{Cycle: m.cycle, PE: pe, Op: op, Got: info.Value, Expected: exp}
		}
	}
}

// latest returns the newest written value for an address; before any write
// retires, that is the pristine memory content (a writeback or flush never
// touches an address without a prior retired write, so the oracle entry
// always exists when memory has been modified by program writes).
func (m *Machine) latest(a bus.Addr) bus.Word {
	if m.oracle.Written(a) {
		return m.oracle.Peek(a)
	}
	return m.mem.pristine(a)
}

// Run executes cycles until every PE halts (and caches drain) or maxCycles
// elapse. It returns the number of cycles executed and the first
// consistency violation, if any.
func (m *Machine) Run(maxCycles uint64) (uint64, error) {
	start := m.cycle
	for m.cycle-start < maxCycles && !m.Done() {
		if err := m.Step(); err != nil {
			return m.cycle - start, err
		}
	}
	return m.cycle - start, m.err
}

// RunFor executes exactly n cycles (unless a violation aborts the run).
func (m *Machine) RunFor(n uint64) error {
	for i := uint64(0); i < n; i++ {
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// FinalImage returns the machine's final memory image after it is Done:
// the shared memory contents with every dirty cache line drained on top —
// what a clean shutdown (write back everything, power off) would leave in
// memory. It errors if two caches both hold the same address dirty, a
// state no fault-free protocol can reach (the Section 4 lemma guarantees
// at most one Local owner). It does not modify the simulated memory.
func (m *Machine) FinalImage() (map[bus.Addr]bus.Word, error) {
	if !m.Done() {
		return nil, fmt.Errorf("machine: FinalImage before Done")
	}
	final := m.mem.Snapshot()
	if m.dirtyOwners == nil {
		m.dirtyOwners = make(map[bus.Addr]int)
	}
	clear(m.dirtyOwners)
	for i, c := range m.caches {
		for _, e := range c.Entries() {
			if e.Dirty {
				if prev, dup := m.dirtyOwners[e.Addr]; dup {
					return nil, fmt.Errorf("machine: caches %d and %d both hold addr %d dirty", prev, i, e.Addr)
				}
				m.dirtyOwners[e.Addr] = i
				final[e.Addr] = e.Data
			}
		}
	}
	return final, nil
}

// VerifyFinalMemory checks, after the machine is Done, that draining every
// dirty cache line into memory yields exactly the oracle's view — the
// whole-run analogue of the Section 4 lemma's "latest value" clause. It
// does not modify the simulated memory.
func (m *Machine) VerifyFinalMemory() error {
	final, err := m.FinalImage()
	if err != nil {
		return err
	}
	// Compare against the oracle on every address it knows; Range walks in
	// ascending address order, so the first mismatch reported is
	// deterministic.
	var verr error
	m.oracle.Range(func(a bus.Addr, want bus.Word) bool {
		if final[a] != want {
			verr = fmt.Errorf("machine: final value of addr %d is %d, oracle says %d", a, final[a], want)
			return false
		}
		return true
	})
	return verr
}

// AuditFinalCoherence checks, after the machine is Done, that every valid
// cache line still holds the latest value in serialization order — the
// final-state coherence audit of the fault-injection layer. Every protocol
// in this repo maintains the invariant fault-free (invalidation-based
// schemes remove stale copies; RWB updates them in place), so any surviving
// stale copy is the footprint of an injected (or real) fault. Requires
// Config.CheckConsistency, which populates the oracle the audit reads.
func (m *Machine) AuditFinalCoherence() error {
	if !m.Done() {
		return fmt.Errorf("machine: AuditFinalCoherence before Done")
	}
	if !m.cfg.CheckConsistency {
		return fmt.Errorf("machine: AuditFinalCoherence without CheckConsistency")
	}
	for i, c := range m.caches {
		for _, e := range c.Entries() {
			if e.State == coherence.Invalid {
				// The frame is occupied but the copy is dead (a snooped
				// invalidation leaves the tag in place); its data can never
				// be served, so it is exempt from the audit.
				continue
			}
			if want := m.latest(e.Addr); e.Data != want {
				return fmt.Errorf("machine: coherence audit: cache %d holds addr %d = %d (%v, dirty=%v), latest written is %d",
					i, e.Addr, e.Data, e.State, e.Dirty, want)
			}
		}
	}
	return nil
}

// Metrics is an aggregate snapshot of the whole machine.
type Metrics struct {
	Cycles             uint64
	Bus                bus.Stats
	PerBusTransactions []uint64
	Caches             []cache.Stats
	Procs              []processor.Stats
	// MissLatency is the distribution of cycles each bus-serviced
	// operation kept its processor blocked (issue to delivery).
	MissLatency stats.Histogram
}

// Metrics returns the current counters.
func (m *Machine) Metrics() Metrics {
	mt := Metrics{
		Cycles:             m.cycle,
		Bus:                m.buses.Stats(),
		PerBusTransactions: m.buses.PerBusTransactions(),
		MissLatency:        m.missLat,
	}
	for _, c := range m.caches {
		mt.Caches = append(mt.Caches, c.Stats())
	}
	for i, p := range m.procs {
		st := p.Stats()
		if p.Status() == processor.StatusBlocked {
			st.StallCycles += m.cpuDone - m.stallFrom[i] // not yet credited, see deliver
		}
		mt.Procs = append(mt.Procs, st)
	}
	return mt
}

// TotalRefs sums retired memory operations across PEs.
func (mt Metrics) TotalRefs() uint64 {
	var t uint64
	for _, p := range mt.Procs {
		t += p.Retired
	}
	return t
}

// BusPerRef returns bus transactions per retired memory operation, the
// paper's figure of merit for every scheme comparison.
func (mt Metrics) BusPerRef() float64 {
	refs := mt.TotalRefs()
	if refs == 0 {
		return 0
	}
	return float64(mt.Bus.Transactions()) / float64(refs)
}
