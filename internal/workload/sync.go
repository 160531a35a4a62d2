package workload

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/coherence"
)

// Strategy selects how a lock is acquired (Section 6).
type Strategy uint8

const (
	// StrategyTS spins on the atomic Test-and-Set itself: every attempt
	// is a bus read-modify-write, the hot-spot behavior of Figure 6-1.
	StrategyTS Strategy = iota
	// StrategyTTS is the paper's Test-and-Test-and-Set: spin on a plain
	// (cachable) read and only issue the atomic operation when the lock
	// looks free — Figures 6-2 and 6-3.
	StrategyTTS
)

func (s Strategy) String() string {
	if s == StrategyTS {
		return "ts"
	}
	return "tts"
}

// SpinlockConfig parameterizes a lock-contention agent.
type SpinlockConfig struct {
	Lock     bus.Addr
	Strategy Strategy
	// Iterations is the number of acquisitions to perform; the agent then
	// halts. Zero acquires forever.
	Iterations int
	// CriticalReads/CriticalWrites are performed on the guarded words
	// while holding the lock.
	CriticalReads  int
	CriticalWrites int
	GuardedBase    bus.Addr
	GuardedWords   int
	// ThinkCycles of processor-internal work separate a release from the
	// next acquisition attempt.
	ThinkCycles int
	Seed        uint64
}

func (c SpinlockConfig) validate() error {
	if c.CriticalReads < 0 || c.CriticalWrites < 0 || c.ThinkCycles < 0 {
		return fmt.Errorf("workload: negative spinlock parameters")
	}
	if (c.CriticalReads > 0 || c.CriticalWrites > 0) && c.GuardedWords < 1 {
		return fmt.Errorf("workload: critical section configured without guarded words")
	}
	return nil
}

// spinPhase is the spinlock agent's state.
type spinPhase uint8

const (
	spinStart     spinPhase = iota
	spinAfterTest           // previous op: plain read of the lock (TTS)
	spinAfterTS             // previous op: Test-and-Set
	spinCritical            // previous op: a critical-section access
	spinAfterRelease
	spinAfterThink
	spinHalted
)

// Spinlock is the contention agent of the Figure 6 scenarios.
type Spinlock struct {
	cfg      SpinlockConfig
	rng      *RNG
	phase    spinPhase
	critLeft int
	seq      bus.Word

	acquisitions int
	attempts     int // Test-and-Sets issued
	spins        int // plain test reads that found the lock held
}

// NewSpinlock builds a spinlock agent.
func NewSpinlock(cfg SpinlockConfig) (*Spinlock, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Spinlock{cfg: cfg, rng: NewRNG(cfg.Seed + 1)}, nil
}

// MustSpinlock is NewSpinlock panicking on error.
func MustSpinlock(cfg SpinlockConfig) *Spinlock {
	s, err := NewSpinlock(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Acquisitions returns the number of completed acquisitions.
func (s *Spinlock) Acquisitions() int { return s.acquisitions }

// Attempts returns the number of Test-and-Set operations issued.
func (s *Spinlock) Attempts() int { return s.attempts }

// Spins returns the number of in-cache test reads that saw the lock held,
// the ones a machine skipped while the PE was parked included (it credits
// them through SkipSpins before Step, Run or RunFor returns).
func (s *Spinlock) Spins() int { return s.spins }

// Spinning implements Spinner: a TTS test read that found the lock held
// is re-issued, and counted as a spin, until it reads 0.
func (s *Spinlock) Spinning(v bus.Word) (bus.Addr, coherence.Class, bool) {
	return s.cfg.Lock, coherence.ClassShared, s.phase == spinAfterTest && v != 0
}

// SkipSpins implements Spinner.
func (s *Spinlock) SkipSpins(n uint64) { s.spins += int(n) }

// Next implements Agent.
func (s *Spinlock) Next(prev Result) Op {
	switch s.phase {
	case spinStart:
		return s.tryAcquire()
	case spinAfterTest:
		if prev.Value != 0 {
			s.spins++
			return Read(s.cfg.Lock, coherence.ClassShared) // keep spinning
		}
		s.phase = spinAfterTS
		s.attempts++
		return TestSet(s.cfg.Lock, 1)
	case spinAfterTS:
		if prev.Value != 0 {
			// Lost the race; back to testing (TTS) or retrying (TS).
			return s.tryAcquire()
		}
		s.acquisitions++
		s.critLeft = s.cfg.CriticalReads + s.cfg.CriticalWrites
		return s.criticalOrRelease()
	case spinCritical:
		return s.criticalOrRelease()
	case spinAfterRelease:
		if s.cfg.Iterations > 0 && s.acquisitions >= s.cfg.Iterations {
			s.phase = spinHalted
			return Halt()
		}
		if s.cfg.ThinkCycles > 0 {
			s.phase = spinAfterThink
			return Compute(s.cfg.ThinkCycles)
		}
		return s.tryAcquire()
	case spinAfterThink:
		return s.tryAcquire()
	case spinHalted:
		return Halt()
	}
	return Halt()
}

func (s *Spinlock) tryAcquire() Op {
	if s.cfg.Strategy == StrategyTTS {
		s.phase = spinAfterTest
		return Read(s.cfg.Lock, coherence.ClassShared)
	}
	s.phase = spinAfterTS
	s.attempts++
	return TestSet(s.cfg.Lock, 1)
}

func (s *Spinlock) criticalOrRelease() Op {
	if s.critLeft <= 0 {
		s.phase = spinAfterRelease
		return Write(s.cfg.Lock, 0, coherence.ClassShared)
	}
	s.phase = spinCritical
	i := s.critLeft
	s.critLeft--
	addr := s.cfg.GuardedBase + bus.Addr(s.rng.Intn(s.cfg.GuardedWords))
	if i <= s.cfg.CriticalWrites {
		s.seq++
		return Write(addr, s.seq, coherence.ClassShared)
	}
	return Read(addr, coherence.ClassShared)
}

// ArrayInit writes each word of [Base, Base+Words) exactly once and halts:
// the Section 5 scenario ("the initialization of an array that is much too
// large to fit in a cache") behind the RB-two-writes vs RWB-one-write
// claim.
type ArrayInit struct {
	Base  bus.Addr
	Words int
	// Value written is the element index plus one (nonzero, so the words
	// are distinguishable from uninitialized memory).
	pos int
}

// NewArrayInit builds the initialization agent.
func NewArrayInit(base bus.Addr, words int) *ArrayInit {
	return &ArrayInit{Base: base, Words: words}
}

// Next implements Agent.
func (a *ArrayInit) Next(Result) Op {
	if a.pos >= a.Words {
		return Halt()
	}
	op := Write(a.Base+bus.Addr(a.pos), bus.Word(a.pos+1), coherence.ClassShared)
	a.pos++
	return op
}

// Hotspot reads and increments a single shared word in a tight loop: the
// unsynchronized hot-spot stressor (Section 6's motivation). Increments is
// the number of read+write pairs; zero runs forever.
type Hotspot struct {
	Addr       bus.Addr
	Increments int
	done       int
	readPhase  bool
	last       bus.Word
}

// NewHotspot builds the stressor.
func NewHotspot(addr bus.Addr, increments int) *Hotspot {
	return &Hotspot{Addr: addr, Increments: increments}
}

// Next implements Agent.
func (h *Hotspot) Next(prev Result) Op {
	if h.readPhase {
		// prev holds the loaded counter; store counter+1.
		h.readPhase = false
		h.done++
		return Write(h.Addr, prev.Value+1, coherence.ClassShared)
	}
	if h.Increments > 0 && h.done >= h.Increments {
		return Halt()
	}
	h.readPhase = true
	return Read(h.Addr, coherence.ClassShared)
}

// Producer writes Items sequence-numbered values into a slot and publishes
// each by writing the sequence number to a flag word; Consumer spins on
// the flag (in cache, TTS-style) and reads the slot after each publish.
// This is the "written by some one PE and then read by others" cyclical
// pattern of Section 5 that RWB's write broadcasting optimizes.
type Producer struct {
	Flag, Slot bus.Addr
	Items      int
	// Gap is compute time between items, giving consumers time to spin.
	Gap  int
	seq  int
	step uint8 // 0: write slot, 1: write flag, 2: gap
}

// NewProducer builds the producing agent.
func NewProducer(flag, slot bus.Addr, items, gap int) *Producer {
	return &Producer{Flag: flag, Slot: slot, Items: items, Gap: gap}
}

// Next implements Agent.
func (p *Producer) Next(Result) Op {
	if p.seq >= p.Items {
		return Halt()
	}
	switch p.step {
	case 0:
		p.step = 1
		return Write(p.Slot, bus.Word(1000+p.seq), coherence.ClassShared)
	case 1:
		p.step = 2
		p.seq++
		return Write(p.Flag, bus.Word(p.seq), coherence.ClassShared)
	default:
		p.step = 0
		if p.Gap > 0 {
			return Compute(p.Gap)
		}
		return Read(p.Flag, coherence.ClassShared) // benign touch
	}
}

// Consumer is Producer's counterpart: it spins reading the flag until the
// sequence number advances, then reads the slot.
type Consumer struct {
	Flag, Slot bus.Addr
	Items      int
	seen       bus.Word
	gotFlag    bool
	received   int
	// Values collects the consumed slot values for verification.
	Values []bus.Word
	step   uint8 // 0: read flag, 1: read slot
}

// NewConsumer builds the consuming agent.
func NewConsumer(flag, slot bus.Addr, items int) *Consumer {
	return &Consumer{Flag: flag, Slot: slot, Items: items}
}

// Received returns the number of items consumed.
func (c *Consumer) Received() int { return c.received }

// Next implements Agent.
func (c *Consumer) Next(prev Result) Op {
	if c.step == 1 {
		// prev is the slot value.
		c.Values = append(c.Values, prev.Value)
		c.received++
		c.step = 0
		if c.received >= c.Items {
			return Halt()
		}
		return Read(c.Flag, coherence.ClassShared)
	}
	if c.gotFlag && prev.Value > c.seen {
		c.seen = prev.Value
		c.step = 1
		return Read(c.Slot, coherence.ClassShared)
	}
	c.gotFlag = true
	return Read(c.Flag, coherence.ClassShared)
}

// Random issues Ops uniformly over a small address window — the fuzzing
// agent the machine-vs-oracle property tests use. Test-and-Sets are
// included so locked transactions are exercised too.
type Random struct {
	Base   bus.Addr
	Words  int
	Ops    int
	TSFrac float64
	WrFrac float64
	rng    *RNG
	done   int
	seq    bus.Word
}

// NewRandom builds the fuzz agent.
func NewRandom(base bus.Addr, words, ops int, wrFrac, tsFrac float64, seed uint64) *Random {
	return &Random{Base: base, Words: words, Ops: ops, WrFrac: wrFrac, TSFrac: tsFrac, rng: NewRNG(seed)}
}

// Next implements Agent.
func (r *Random) Next(Result) Op {
	if r.done >= r.Ops {
		return Halt()
	}
	r.done++
	r.seq++
	addr := r.Base + bus.Addr(r.rng.Intn(r.Words))
	u := r.rng.Float64()
	switch {
	case u < r.TSFrac:
		return TestSet(addr, r.seq)
	case u < r.TSFrac+r.WrFrac:
		return Write(addr, r.seq, coherence.ClassShared)
	default:
		return Read(addr, coherence.ClassShared)
	}
}
