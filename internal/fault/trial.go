package fault

import (
	"errors"
	"fmt"

	"repro/internal/batch"
	"repro/internal/bus"
	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/workload"
)

// TrialConfig sizes one fault trial's machine and workload.
type TrialConfig struct {
	// Protocol is the coherence scheme under test (default RB).
	Protocol coherence.Protocol
	// PEs is the processor count (default 4).
	PEs int
	// Refs is the number of memory references each PE issues (default 300).
	Refs int
	// AddrRange is the shared address space size; must exceed PEs so every
	// PE owns at least one writable address (default 64).
	AddrRange int
	// CacheLines per private cache (default 32 — small enough that the
	// workload evicts, so write-backs and victim traffic exist to fault).
	CacheLines int
	// StallCycles is the watchdog threshold (default 2000). Trials need a
	// tight watchdog: a wedged transaction should be *detected*, not spun
	// on until the cycle cap.
	StallCycles uint64
}

func (c TrialConfig) withDefaults() TrialConfig {
	if c.Protocol == nil {
		c.Protocol = coherence.New(coherence.KindRB)
	}
	if c.PEs == 0 {
		c.PEs = 4
	}
	if c.Refs == 0 {
		c.Refs = 300
	}
	if c.AddrRange == 0 {
		c.AddrRange = 64
	}
	if c.CacheLines == 0 {
		c.CacheLines = 32
	}
	if c.StallCycles == 0 {
		c.StallCycles = 2000
	}
	return c
}

// agent is the campaign workload: PE i reads anywhere in the shared range
// but writes only addresses it owns (addr ≡ i mod PEs), with write values
// unique per PE. Single-writer-per-address keeps the fault-free final
// image independent of transaction interleaving: the last write to each
// address in serialization order is always its owner's last program write,
// so a purely timing-shifting fault converges back to the reference image.
type agent struct {
	pe, pes   int
	addrRange int
	refs      int // program length; Reseed restores remaining to this
	remaining int
	rng       *workload.RNG
	written   uint32 // per-PE write counter, embedded in every value
}

// Reseed restores the agent to its freshly constructed state for the
// given workload seed, deriving the per-PE stream exactly as build does.
// It makes the campaign agent a workload.Reseeder, so trial machines can
// be recycled through a batch arena by generation reset.
func (a *agent) Reseed(seed uint64) {
	a.remaining = a.refs
	a.written = 0
	a.rng.Reseed(seed + uint64(a.pe)*0x9e3779b97f4a7c15)
}

func (a *agent) Next(workload.Result) workload.Op {
	if a.remaining <= 0 {
		return workload.Halt()
	}
	a.remaining--
	if a.rng.Float64() < 0.4 {
		owned := (a.addrRange - a.pe + a.pes - 1) / a.pes
		addr := bus.Addr(a.pe + a.rng.Intn(owned)*a.pes)
		a.written++
		v := bus.Word(uint32(a.pe+1)<<20 | a.written)
		return workload.Write(addr, v, coherence.ClassShared)
	}
	return workload.Read(bus.Addr(a.rng.Intn(a.addrRange)), coherence.ClassShared)
}

// agents constructs the per-PE campaign workload for one seed.
func (c TrialConfig) agents(wlSeed uint64) []workload.Agent {
	agents := make([]workload.Agent, c.PEs)
	for i := range agents {
		agents[i] = &agent{
			pe: i, pes: c.PEs,
			addrRange: c.AddrRange,
			refs:      c.Refs,
			remaining: c.Refs,
			rng:       workload.NewRNG(wlSeed + uint64(i)*0x9e3779b97f4a7c15),
		}
	}
	return agents
}

// shape is the batch-arena key: every trial dimension that changes the
// machine's construction. Seeds are deliberately absent — same shape,
// different seed is exactly what generation reset recycles.
func (c TrialConfig) shape() string {
	return fmt.Sprintf("fault/%s/pes=%d/refs=%d/range=%d/lines=%d/stall=%d",
		c.Protocol.Name(), c.PEs, c.Refs, c.AddrRange, c.CacheLines, c.StallCycles)
}

// build assembles the trial machine for one workload seed — recycled from
// the arena when one is supplied, freshly constructed otherwise. The same
// seed always yields the same program, so the reference run and every
// fault trial execute identical per-PE instruction streams. Machine.Reset
// clears every injection hook (bus injector, write interceptor) and every
// perturbed word along with the rest of the machine, so a recycled
// machine carries no fault residue from the previous trial.
func (c TrialConfig) build(arena *batch.Arena, wlSeed uint64) (*machine.Machine, error) {
	if c.AddrRange <= c.PEs {
		return nil, fmt.Errorf("fault: AddrRange %d must exceed PEs %d", c.AddrRange, c.PEs)
	}
	mcfg := machine.Config{
		Protocol:         c.Protocol,
		CacheLines:       c.CacheLines,
		CheckConsistency: true,
		StallCycles:      c.StallCycles,
	}
	if arena != nil {
		return arena.Machine(c.shape(), mcfg, wlSeed, func() []workload.Agent { return c.agents(wlSeed) })
	}
	return machine.New(mcfg, c.agents(wlSeed))
}

// maxCycles caps a trial run well beyond any healthy completion so only a
// watchdog-less hang (impossible with StallCycles set) could reach it.
func (c TrialConfig) maxCycles(ref *Reference) uint64 {
	return ref.Cycles*4 + c.StallCycles*4 + 10_000
}

// Reference is the fault-free baseline of one (config, seed) point: what
// the trial classifier compares against, and what the fault planner draws
// its trigger windows from.
type Reference struct {
	Cycles uint64                // cycles to drain fault-free
	Writes uint64                // memory-port writes (lost-write ordinal window)
	Image  map[bus.Addr]bus.Word // final memory image, dirty lines drained
}

// ReferenceIn runs the workload fault-free and records the baseline,
// drawing its machine from a batch arena (nil constructs a fresh one). It
// errors if the fault-free run trips any oracle — that would be a
// simulator bug, and no classification built on it would mean anything.
func (c TrialConfig) ReferenceIn(arena *batch.Arena, wlSeed uint64) (*Reference, error) {
	c = c.withDefaults()
	m, err := c.build(arena, wlSeed)
	if err != nil {
		return nil, err
	}
	cycles, err := m.Run(1 << 26)
	if err != nil {
		return nil, fmt.Errorf("fault: reference run not fault-free: %w", err)
	}
	if !m.Done() {
		return nil, fmt.Errorf("fault: reference run did not drain in %d cycles", cycles)
	}
	if err := m.VerifyFinalMemory(); err != nil {
		return nil, fmt.Errorf("fault: reference run not fault-free: %w", err)
	}
	if err := m.AuditFinalCoherence(); err != nil {
		return nil, fmt.Errorf("fault: reference run not fault-free: %w", err)
	}
	img, err := m.FinalImage()
	if err != nil {
		return nil, err
	}
	return &Reference{Cycles: cycles, Writes: m.Memory().Stats().Writes, Image: img}, nil
}

// Event is one planned fault: a class plus the fully resolved injection
// point, every field drawn from the trial seed and the reference
// measurements — no wall clock, no global state.
type Event struct {
	Class   Class
	Trigger uint64   // machine cycle the fault arms at
	Dur     uint64   // BusArbFreeze: frozen cycles
	Ordinal uint64   // MemLostWrite: 1-based memory write to swallow
	PE      int      // cache classes: victim cache
	Pick    uint64   // cache classes: entry selector at trigger time
	Addr    bus.Addr // MemBitFlip: target word
	Mask    bus.Word // bit-flip mask (MemBitFlip, CacheStale)
}

// String renders the plan for trial details and debugging.
func (e Event) String() string {
	switch e.Class {
	case BusArbFreeze:
		return fmt.Sprintf("%v trigger=%d dur=%d", e.Class, e.Trigger, e.Dur)
	case MemBitFlip:
		return fmt.Sprintf("%v trigger=%d addr=%d mask=%#x", e.Class, e.Trigger, e.Addr, e.Mask)
	case MemLostWrite:
		return fmt.Sprintf("%v ordinal=%d", e.Class, e.Ordinal)
	case CacheSpuriousInv:
		return fmt.Sprintf("%v trigger=%d pe=%d", e.Class, e.Trigger, e.PE)
	case CacheStale:
		return fmt.Sprintf("%v trigger=%d pe=%d mask=%#x", e.Class, e.Trigger, e.PE, e.Mask)
	default:
		// The one-shot bus classes carry only a trigger.
		return fmt.Sprintf("%v trigger=%d", e.Class, e.Trigger)
	}
}

// PlanEvent draws one fault of the given class from the trial seed. The
// trigger lands in the middle of the reference run — after warmup (cycles
// /10) and before the drain tail (3/4 through) — so the fault meets live
// traffic; the lost-write ordinal window is placed the same way over the
// reference write count.
func PlanEvent(class Class, trialSeed uint64, ref *Reference, cfg TrialConfig) Event {
	cfg = cfg.withDefaults()
	rng := workload.NewRNG(trialSeed*0x9e3779b97f4a7c15 + uint64(class) + 1)
	window := func(total uint64) uint64 {
		lo := total/10 + 1
		hi := total*3/4 + 2
		return lo + rng.Uint64()%(hi-lo)
	}
	ev := Event{Class: class, Trigger: window(ref.Cycles)}
	switch class {
	case BusArbFreeze:
		ev.Dur = 1 + rng.Uint64()%(2*cfg.StallCycles)
	case MemBitFlip:
		ev.Addr = bus.Addr(rng.Intn(cfg.AddrRange))
		ev.Mask = 1 << rng.Intn(32)
	case MemLostWrite:
		ev.Ordinal = window(ref.Writes)
	case CacheSpuriousInv:
		ev.PE = rng.Intn(cfg.PEs)
		ev.Pick = rng.Uint64()
	case CacheStale:
		ev.PE = rng.Intn(cfg.PEs)
		ev.Pick = rng.Uint64()
		ev.Mask = 1 << rng.Intn(32)
	default:
		// BusDrop/BusDup/BusSnoopSuppress need only the trigger cycle.
	}
	return ev
}

// busInjector implements bus.Injector for the three one-shot bus classes
// and the bounded arbitration freeze.
type busInjector struct {
	ev    Event
	fired bool
	at    uint64
	desc  string
}

func (bi *busInjector) WedgeArbitration(cycle uint64) bool {
	if bi.ev.Class != BusArbFreeze || cycle < bi.ev.Trigger || cycle >= bi.ev.Trigger+bi.ev.Dur {
		return false
	}
	if !bi.fired {
		bi.fired = true
		bi.at = cycle
		bi.desc = fmt.Sprintf("froze arbitration for %d cycles at cycle %d", bi.ev.Dur, cycle)
	}
	return true
}

func (bi *busInjector) OnGrant(cycle uint64, r bus.Request) bus.Verdict {
	if bi.fired || cycle < bi.ev.Trigger {
		return bus.VerdictPass
	}
	var v bus.Verdict
	var what string
	switch bi.ev.Class {
	case BusDrop:
		v, what = bus.VerdictDrop, "dropped"
	case BusDup:
		v, what = bus.VerdictDup, "duplicated"
	case BusSnoopSuppress:
		v, what = bus.VerdictMute, "snoop-suppressed"
	default:
		return bus.VerdictPass
	}
	bi.fired = true
	bi.at = cycle
	bi.desc = fmt.Sprintf("%s %v addr=%d from PE%d at cycle %d", what, r.Op, r.Addr, r.Source, cycle)
	return v
}

// lostWrite swallows the Nth bus write inside the memory port.
type lostWrite struct {
	ordinal uint64
	count   uint64
	fired   bool
	desc    string
}

func (lw *lostWrite) intercept(a bus.Addr, w bus.Word) bool {
	lw.count++
	if lw.count != lw.ordinal {
		return false
	}
	lw.fired = true
	lw.desc = fmt.Sprintf("lost write #%d addr=%d data=%d", lw.ordinal, a, w)
	return true
}

// TrialResult is one classified trial.
type TrialResult struct {
	Class   Class
	Event   Event
	Fired   bool // the fault found a target and actually perturbed state
	Outcome Outcome
	// Detail names what happened: the injection description plus, for
	// detected trials, the oracle that tripped, and for silent ones the
	// first diverged address.
	Detail string
}

// RunTrialIn executes one fault trial: the workload of wlSeed (the same
// program the Reference measured) with one fault of the given class,
// planned from trialSeed, injected mid-run. The result is the trial's
// masked/detected/silent classification. The machine is drawn from a
// batch arena (nil constructs a fresh one); recycling is safe here
// precisely because generation reset erases all injection state: the bus
// injector, the memory write interceptor, corrupted memory words, and
// perturbed cache lines all die with the old generation.
func RunTrialIn(arena *batch.Arena, cfg TrialConfig, ref *Reference, class Class, wlSeed, trialSeed uint64) (TrialResult, error) {
	cfg = cfg.withDefaults()
	ev := PlanEvent(class, trialSeed, ref, cfg)
	m, err := cfg.build(arena, wlSeed)
	if err != nil {
		return TrialResult{}, err
	}
	res := TrialResult{Class: class, Event: ev}

	// Install the class's hook. Bus and memory faults arm a callback; the
	// direct-perturbation classes (memory flip, cache faults) fire inline
	// in the step loop at the trigger cycle.
	var bi *busInjector
	var lw *lostWrite
	switch class {
	case BusDrop, BusDup, BusSnoopSuppress, BusArbFreeze:
		bi = &busInjector{ev: ev}
		m.Buses().SetInjector(bi)
	case MemLostWrite:
		lw = &lostWrite{ordinal: ev.Ordinal}
		m.Memory().SetWriteInterceptor(lw.intercept)
	default:
		// MemBitFlip and the cache classes fire inline via inject().
	}

	inject := func() {
		switch class {
		case MemBitFlip:
			got := m.Memory().Corrupt(ev.Addr, ev.Mask)
			res.Fired = true
			res.Detail = fmt.Sprintf("flipped mask=%#x at addr=%d (now %d) at cycle %d", ev.Mask, ev.Addr, got, m.Cycle())
		case CacheSpuriousInv, CacheStale:
			c := m.Cache(ev.PE)
			entries := c.Entries()
			if len(entries) == 0 {
				res.Detail = fmt.Sprintf("no valid line in cache %d at cycle %d", ev.PE, m.Cycle())
				return
			}
			// Prefer a dirty victim: losing the only up-to-date copy is the
			// perturbation this class exists for. Clean lines are the
			// deterministic fallback when the cache holds nothing dirty.
			pool := entries[:0:0]
			for _, e := range entries {
				if e.Dirty {
					pool = append(pool, e)
				}
			}
			if len(pool) == 0 {
				pool = entries
			}
			e := pool[int(ev.Pick%uint64(len(pool)))]
			if class == CacheSpuriousInv {
				res.Fired = c.InjectInvalidate(e.Addr)
				res.Detail = fmt.Sprintf("invalidated addr=%d (%v dirty=%v data=%d) in cache %d at cycle %d",
					e.Addr, e.State, e.Dirty, e.Data, ev.PE, m.Cycle())
			} else {
				res.Fired = c.InjectStale(e.Addr, ev.Mask)
				res.Detail = fmt.Sprintf("flipped mask=%#x into addr=%d (%v dirty=%v) in cache %d at cycle %d",
					ev.Mask, e.Addr, e.State, e.Dirty, ev.PE, m.Cycle())
			}
		default:
			// Bus and lost-write classes fire via their installed hooks,
			// never through inject().
		}
	}

	direct := class == MemBitFlip || class == CacheSpuriousInv || class == CacheStale
	injected := false
	var runErr error
	cycleCap := cfg.maxCycles(ref)
	for !m.Done() && m.Cycle() < cycleCap {
		if direct && !injected && m.Cycle() >= ev.Trigger {
			injected = true
			inject()
		}
		if err := m.Step(); err != nil {
			runErr = err
			break
		}
	}
	if direct && !injected {
		// The faulty run drained before the trigger (can only happen if
		// injection shortened the run — it cannot, but stay safe).
		injected = true
		inject()
	}
	if bi != nil {
		res.Fired = bi.fired
		if bi.desc != "" {
			res.Detail = bi.desc
		}
	}
	if lw != nil {
		res.Fired = lw.fired
		if lw.desc != "" {
			res.Detail = lw.desc
		}
	}

	classify := func(oracle string, err error) {
		res.Outcome = Detected
		res.Detail = fmt.Sprintf("%s; %s: %v", res.Detail, oracle, err)
	}
	switch {
	case runErr != nil:
		var stall *machine.StallError
		var incons *machine.ConsistencyError
		switch {
		case errors.As(runErr, &stall):
			classify("watchdog", runErr)
		case errors.As(runErr, &incons):
			classify("consistency oracle", runErr)
		default:
			classify("run error", runErr)
		}
	case !m.Done():
		classify("cycle cap", fmt.Errorf("run exceeded %d cycles without draining", cycleCap))
	default:
		if err := m.VerifyFinalMemory(); err != nil {
			classify("final-memory oracle", err)
			break
		}
		if err := m.AuditFinalCoherence(); err != nil {
			classify("coherence audit", err)
			break
		}
		img, err := m.FinalImage()
		if err != nil {
			classify("final image", err)
			break
		}
		if addr, differs := imagesDiff(img, ref.Image); differs {
			res.Outcome = Silent
			res.Detail = fmt.Sprintf("%s; image diverged first at addr %d (got %d, reference %d)",
				res.Detail, addr, img[addr], ref.Image[addr])
		} else {
			res.Outcome = Masked
			if !res.Fired {
				if res.Detail == "" {
					res.Detail = "no target"
				}
				res.Detail += " (never fired)"
			}
		}
	}
	return res, nil
}
