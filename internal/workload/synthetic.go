package workload

import (
	"fmt"
	"math"

	"repro/internal/bus"
	"repro/internal/coherence"
)

// Layout assigns address segments: one shared segment common to all PEs and
// disjoint per-PE code and local-data segments, mirroring the data classes
// of Section 2 ("local ... and shared", subdivided into read-only code and
// read/write).
type Layout struct {
	SharedBase  bus.Addr
	SharedWords int
	// Per-PE segments start at PEBase + PE*PEStride.
	PEBase   bus.Addr
	PEStride bus.Addr
	// Within a PE's region, code occupies [0, CodeWords) and local data
	// [CodeOffset, CodeOffset+LocalWords).
	CodeWords  int
	CodeOffset bus.Addr
	LocalWords int
}

// DefaultLayout spaces segments widely enough that no two classes collide
// for up to 1024 PEs with 64K-word footprints each.
func DefaultLayout() Layout {
	return Layout{
		SharedBase:  0,
		SharedWords: 4096,
		PEBase:      1 << 16,
		PEStride:    1 << 17,
		CodeWords:   8192,
		// Offset the local segment by an extra 1024 words so the two
		// sequential streams start in different halves of a direct-mapped
		// cache instead of aliasing set-for-set.
		CodeOffset: 1<<16 + 1024,
		LocalWords: 8192,
	}
}

// CodeBase returns PE pe's code segment base.
func (l Layout) CodeBase(pe int) bus.Addr { return l.PEBase + bus.Addr(pe)*l.PEStride }

// LocalBase returns PE pe's local-data segment base.
func (l Layout) LocalBase(pe int) bus.Addr {
	return l.PEBase + bus.Addr(pe)*l.PEStride + l.CodeOffset
}

// AppProfile parameterizes a synthetic application. The fractions are of
// all memory references, matching the columns of Table 1-1: SharedFrac is
// "Shared Read/Write", LocalWriteFrac is "Local Writes", and the remainder
// is reads of code and local data whose hit behavior the cache determines.
type AppProfile struct {
	Name string
	// SharedFrac of references touch the shared segment (column 4).
	SharedFrac float64
	// SharedWriteFrac of the shared references are writes; the rest read.
	SharedWriteFrac float64
	// LocalWriteFrac of references are writes to local data (column 3).
	LocalWriteFrac float64
	// CodeFrac of the remaining (read) references fetch code; the rest
	// read local data.
	CodeFrac float64
	// Locality of the read stream: HotFrac of reads hit one of the HotSet
	// most recent addresses; MidFrac draw a reuse depth log-uniformly in
	// [1, MidDepth] (the working set that fits the larger cache sizes);
	// the rest draw log-uniformly in [1, MaxDepth], touching a fresh
	// address when the depth exceeds the number of addresses seen so far.
	HotFrac  float64
	HotSet   int
	MidFrac  float64
	MidDepth int
	MaxDepth int
}

// Validate reports configuration errors.
func (p AppProfile) Validate() error {
	if p.SharedFrac < 0 || p.LocalWriteFrac < 0 || p.SharedFrac+p.LocalWriteFrac > 1 {
		return fmt.Errorf("workload: %s: reference fractions exceed 1", p.Name)
	}
	if p.CodeFrac < 0 || p.CodeFrac > 1 || p.SharedWriteFrac < 0 || p.SharedWriteFrac > 1 {
		return fmt.Errorf("workload: %s: fractions out of range", p.Name)
	}
	if p.HotFrac < 0 || p.HotFrac > 1 || p.HotSet < 1 || p.MaxDepth < 2 {
		return fmt.Errorf("workload: %s: locality parameters out of range", p.Name)
	}
	if p.MidFrac < 0 || p.HotFrac+p.MidFrac > 1 || (p.MidFrac > 0 && p.MidDepth < 2) {
		return fmt.Errorf("workload: %s: mid-range locality parameters out of range", p.Name)
	}
	return nil
}

// PDEProfile models the first application of Table 1-1: 5% shared
// references and 8% local writes, with locality calibrated so the
// read-miss ratio falls from the mid-20s to single digits as the cache
// grows from 256 to 2048 words.
func PDEProfile() AppProfile {
	return AppProfile{
		Name:            "pde",
		SharedFrac:      0.05,
		SharedWriteFrac: 0.3,
		LocalWriteFrac:  0.08,
		CodeFrac:        0.6,
		HotFrac:         0.64,
		HotSet:          16,
		MidFrac:         0.30,
		MidDepth:        550,
		MaxDepth:        60000,
	}
}

// QuicksortProfile models the second application: 10% shared references
// and 6.7% local writes.
func QuicksortProfile() AppProfile {
	return AppProfile{
		Name:            "qsort",
		SharedFrac:      0.10,
		SharedWriteFrac: 0.3,
		LocalWriteFrac:  0.067,
		CodeFrac:        0.6,
		HotFrac:         0.64,
		HotSet:          16,
		MidFrac:         0.30,
		MidDepth:        520,
		MaxDepth:        50000,
	}
}

// stackReserve is the LRU history a stackModel reserves up front: 8 KiB,
// 7x the depth the hot and mid draws reach (HotSet 16, MidDepth 550), and
// more than a core-saturated PE's stream reaches in its whole run.
const stackReserve = 4096

// stackModel generates a reference stream with an LRU-stack-distance
// locality profile over a bounded segment.
type stackModel struct {
	rng  *RNG
	base bus.Addr
	size int
	// stack holds segment offsets (address minus base), most recently used
	// first. Two bytes an entry (NewApp bounds a segment at 64K words)
	// halve the bytes promote moves on every reference.
	stack    []uint16
	hotFrac  float64
	hotSet   int
	midFrac  float64
	midDepth int
	logMax   float64
}

// newStackModel: maxRefs bounds the stream's references (0 = unbounded).
func newStackModel(rng *RNG, base bus.Addr, size int, p AppProfile, maxRefs int) *stackModel {
	m := &stackModel{
		rng: rng, base: base, size: size,
		hotFrac: p.HotFrac, hotSet: p.HotSet,
		midFrac: p.MidFrac,
		logMax:  math.Log(float64(p.MaxDepth)),
	}
	m.midDepth = p.MidDepth
	// The stack gains at most one entry per reference, never past the
	// segment or MaxDepth (plus a float-rounding margin), and App.Next
	// halts after maxRefs. So a stream of up to stackReserve-1 references
	// never reallocates, and a longer one starts at stackReserve and lets
	// promote's append grow the backing, a few amortised reallocations in
	// its life (4096 -> 9216 entries for an 8 192-word segment). Reserving MaxDepth+2 up front instead
	// cost a 64-PE machine 15 MB its run never touched.
	capacity := min(p.MaxDepth+2, stackReserve)
	if maxRefs > 0 {
		capacity = min(capacity, maxRefs+1)
	}
	m.stack = make([]uint16, 0, capacity)
	return m
}

// reset empties the LRU history, keeping the stack backing at whatever
// capacity the stream grew it to.
func (m *stackModel) reset() {
	m.stack = m.stack[:0]
}

// next returns the next address of the stream.
func (m *stackModel) next() bus.Addr {
	var depth int
	u := m.rng.Float64()
	switch {
	case len(m.stack) == 0:
		depth = 0
	case u < m.hotFrac:
		limit := m.hotSet
		if limit > len(m.stack) {
			limit = len(m.stack)
		}
		depth = m.rng.Intn(limit)
	case u < m.hotFrac+m.midFrac:
		// Uniform depth across the mid working set: the mass the larger
		// cache sizes capture, giving the knee of the Table 1-1 curve.
		depth = 1 + m.rng.Intn(m.midDepth)
	default:
		// Log-uniform depth in [1, maxDepth): constant probability mass
		// per doubling, giving the halving miss curve of Table 1-1.
		depth = int(math.Exp(m.rng.Float64() * m.logMax))
	}
	if depth >= len(m.stack) {
		if len(m.stack) < m.size {
			// Deeper than history: reference a fresh address (a
			// compulsory miss). Offsets are handed out in order, so the
			// next fresh one is the stack's length.
			off := uint16(len(m.stack))
			m.promote(off, len(m.stack))
			return m.base + bus.Addr(off)
		}
		// Every offset of the segment is on the stack: reference the
		// least recently used one.
		depth = len(m.stack) - 1
	}
	off := m.stack[depth]
	m.promote(off, depth)
	return m.base + bus.Addr(off)
}

// promote moves the offset at the given stack position to the front,
// inserting it if position == len(stack).
func (m *stackModel) promote(off uint16, pos int) {
	if pos == len(m.stack) {
		m.stack = append(m.stack, 0)
	}
	copy(m.stack[1:pos+1], m.stack[:pos])
	m.stack[0] = off
}

// App is the synthetic-application agent behind the Table 1-1
// reproduction. Each instance generates one PE's reference stream:
// code fetches and local-data reads with stack locality, write-through
// local writes, and uniformly distributed shared references.
type App struct {
	profile AppProfile
	layout  Layout
	pe      int
	rng     *RNG
	code    *stackModel
	local   *stackModel
	refs    int
	maxRefs int // 0 = unbounded
	seq     bus.Word
}

// NewApp builds the agent for one PE. maxRefs bounds the stream (0 means
// run forever); seeds are derived from seed and the PE index.
func NewApp(profile AppProfile, layout Layout, pe int, seed uint64, maxRefs int) (*App, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	if layout.SharedWords < 1 || layout.CodeWords < 1 || layout.LocalWords < 1 {
		return nil, fmt.Errorf("workload: layout has empty segments")
	}
	if layout.CodeWords > 1<<16 || layout.LocalWords > 1<<16 {
		return nil, fmt.Errorf("workload: code and local segments are limited to 64K words")
	}
	rng := NewRNG(seed*1e9 + uint64(pe)*7919)
	return &App{
		profile: profile,
		layout:  layout,
		pe:      pe,
		rng:     rng,
		code:    newStackModel(rng, layout.CodeBase(pe), layout.CodeWords, profile, maxRefs),
		local:   newStackModel(rng, layout.LocalBase(pe), layout.LocalWords, profile, maxRefs),
		maxRefs: maxRefs,
	}, nil
}

// Reseed implements Reseeder: the agent re-derives its per-PE RNG stream
// from the base seed exactly as NewApp does and rewinds both locality
// models onto their existing backing, so a recycled App emits the same
// reference stream a freshly constructed one would.
func (a *App) Reseed(seed uint64) {
	a.rng.Reseed(seed*1e9 + uint64(a.pe)*7919)
	a.code.reset()
	a.local.reset()
	a.refs = 0
	a.seq = 0
}

// MustApp is NewApp panicking on error.
func MustApp(profile AppProfile, layout Layout, pe int, seed uint64, maxRefs int) *App {
	a, err := NewApp(profile, layout, pe, seed, maxRefs)
	if err != nil {
		panic(err)
	}
	return a
}

// Next implements Agent.
func (a *App) Next(Result) Op {
	if a.maxRefs > 0 && a.refs >= a.maxRefs {
		return Halt()
	}
	a.refs++
	a.seq++
	u := a.rng.Float64()
	switch {
	case u < a.profile.SharedFrac:
		addr := a.layout.SharedBase + bus.Addr(a.rng.Intn(a.layout.SharedWords))
		if a.rng.Float64() < a.profile.SharedWriteFrac {
			return Write(addr, a.seq, coherence.ClassShared)
		}
		return Read(addr, coherence.ClassShared)
	case u < a.profile.SharedFrac+a.profile.LocalWriteFrac:
		return Write(a.local.next(), a.seq, coherence.ClassLocal)
	default:
		if a.rng.Float64() < a.profile.CodeFrac {
			return Read(a.code.next(), coherence.ClassCode)
		}
		return Read(a.local.next(), coherence.ClassLocal)
	}
}

// Refs returns the number of references generated so far.
func (a *App) Refs() int { return a.refs }
