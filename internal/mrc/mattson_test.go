package mrc

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/memory"
	"repro/internal/workload"
)

// mattson is the oracle the online profiler is pinned against:
// Mattson's stack algorithm done naively, with an explicit LRU stack
// and an unbucketed reuse-distance histogram. One pass over a trace
// yields the exact miss count of every fully-associative LRU cache
// size, at O(footprint) per reference. The tests below check the oracle
// itself, against first principles and against the cache simulator.
type mattson struct {
	stack  []bus.Addr // most recently used first
	index  map[bus.Addr]int
	counts map[int]uint64 // reuse distance -> occurrences
	colds  uint64
	refs   uint64
}

// mattsonCold is the reuse distance of a first-ever reference.
const mattsonCold = int(^uint(0) >> 1)

func newMattson() *mattson {
	return &mattson{index: make(map[bus.Addr]int), counts: make(map[int]uint64)}
}

// Touch records a reference and returns its reuse (stack) distance:
// the number of distinct addresses referenced since the previous touch
// of a, or mattsonCold for a first reference. A fully-associative LRU
// cache of S lines hits exactly the references with distance < S.
func (p *mattson) Touch(a bus.Addr) int {
	p.refs++
	pos, seen := p.index[a]
	if !seen {
		p.colds++
		p.push(a)
		return mattsonCold
	}
	// Move to front; everything above shifts down.
	copy(p.stack[1:pos+1], p.stack[:pos])
	p.stack[0] = a
	for i := 0; i <= pos; i++ {
		p.index[p.stack[i]] = i
	}
	p.counts[pos]++
	return pos
}

func (p *mattson) push(a bus.Addr) {
	p.stack = append(p.stack, a)
	copy(p.stack[1:], p.stack[:len(p.stack)-1])
	p.stack[0] = a
	for i := range p.stack {
		p.index[p.stack[i]] = i
	}
}

// Refs returns the number of references recorded.
func (p *mattson) Refs() uint64 { return p.refs }

// Colds returns the number of first-ever references (compulsory misses).
func (p *mattson) Colds() uint64 { return p.colds }

// Footprint returns the number of distinct addresses seen.
func (p *mattson) Footprint() int { return len(p.stack) }

// Misses returns the exact miss count of a fully-associative LRU cache
// with the given number of lines: cold misses plus every reuse at
// distance >= lines.
func (p *mattson) Misses(lines int) uint64 {
	if lines <= 0 {
		return p.refs
	}
	misses := p.colds
	for d, c := range p.counts {
		if d >= lines {
			misses += c
		}
	}
	return misses
}

// MissRatio returns Misses(lines)/Refs.
func (p *mattson) MissRatio(lines int) float64 {
	if p.refs == 0 {
		return 0
	}
	return float64(p.Misses(lines)) / float64(p.refs)
}

// Curve evaluates the miss curve at the given sizes (sorted ascending in
// the result).
func (p *mattson) Curve(sizes []int) []CurvePoint {
	out := make([]CurvePoint, 0, len(sizes))
	for _, s := range sizes {
		out = append(out, CurvePoint{Lines: s, Misses: p.Misses(s), MissRatio: p.MissRatio(s)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lines < out[j].Lines })
	return out
}

// Distances returns the raw reuse-distance histogram (excluding colds),
// sorted by distance.
func (p *mattson) Distances() []CurvePoint {
	out := make([]CurvePoint, 0, len(p.counts))
	for d, c := range p.counts {
		out = append(out, CurvePoint{Lines: d, Misses: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lines < out[j].Lines })
	return out
}

func TestColdAndReuse(t *testing.T) {
	p := newMattson()
	if d := p.Touch(1); d != mattsonCold {
		t.Fatalf("first touch distance = %d, want mattsonCold", d)
	}
	if d := p.Touch(1); d != 0 {
		t.Fatalf("immediate reuse distance = %d, want 0", d)
	}
	p.Touch(2)
	p.Touch(3)
	if d := p.Touch(1); d != 2 {
		t.Fatalf("reuse after 2 distinct = %d, want 2", d)
	}
	if p.Refs() != 5 || p.Colds() != 3 || p.Footprint() != 3 {
		t.Fatalf("refs/colds/footprint = %d/%d/%d", p.Refs(), p.Colds(), p.Footprint())
	}
}

func TestMissesInclusionProperty(t *testing.T) {
	// Misses are monotone nonincreasing in cache size (the stack
	// algorithm's inclusion property).
	p := newMattson()
	rng := workload.NewRNG(1)
	for i := 0; i < 5000; i++ {
		p.Touch(bus.Addr(rng.Intn(200)))
	}
	prev := p.Misses(1)
	for s := 2; s <= 512; s *= 2 {
		cur := p.Misses(s)
		if cur > prev {
			t.Fatalf("misses grew from %d to %d at size %d", prev, cur, s)
		}
		prev = cur
	}
	// At a size covering the whole footprint, only colds miss.
	if got := p.Misses(1024); got != p.Colds() {
		t.Fatalf("full-footprint misses = %d, want colds %d", got, p.Colds())
	}
	// Size zero misses everything.
	if p.Misses(0) != p.Refs() {
		t.Fatal("size-0 cache did not miss everything")
	}
}

func TestCurveAndPowersOfTwo(t *testing.T) {
	p := newMattson()
	for i := 0; i < 10; i++ {
		p.Touch(bus.Addr(i % 4))
	}
	curve := p.Curve(PowersOfTwo(0, 3))
	if len(curve) != 4 || curve[0].Lines != 1 || curve[3].Lines != 8 {
		t.Fatalf("curve = %+v", curve)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].MissRatio > curve[i-1].MissRatio {
			t.Fatal("curve not monotone")
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad power range accepted")
			}
		}()
		PowersOfTwo(5, 2)
	}()
}

func TestDistancesHistogram(t *testing.T) {
	p := newMattson()
	p.Touch(1)
	p.Touch(2)
	p.Touch(1) // distance 1
	p.Touch(1) // distance 0
	ds := p.Distances()
	if len(ds) != 2 || ds[0].Lines != 0 || ds[0].Misses != 1 || ds[1].Lines != 1 || ds[1].Misses != 1 {
		t.Fatalf("distances = %+v", ds)
	}
}

func TestEmptyProfiler(t *testing.T) {
	p := newMattson()
	if p.MissRatio(4) != 0 || p.Misses(4) != 0 || p.Footprint() != 0 {
		t.Fatal("empty profiler not all-zero")
	}
}

// TestCrossValidateAgainstCacheSimulator: for a single-PE read-only
// stream, the profiler's miss count at size S must equal the misses of a
// fully-associative LRU cache (Lines = Ways = S) in the real simulator.
func TestCrossValidateAgainstCacheSimulator(t *testing.T) {
	rng := workload.NewRNG(7)
	var refs []bus.Addr
	for i := 0; i < 3000; i++ {
		// A mix of hot and wide addresses.
		if rng.Float64() < 0.6 {
			refs = append(refs, bus.Addr(rng.Intn(8)))
		} else {
			refs = append(refs, bus.Addr(rng.Intn(300)))
		}
	}

	p := newMattson()
	for _, a := range refs {
		p.Touch(a)
	}

	for _, size := range []int{4, 16, 64} {
		mem := memory.New()
		b := bus.New(mem)
		c := cache.MustNew(0, coherence.New(coherence.KindRB), cache.Config{Lines: size, Ways: size})
		b.Attach(0, c)
		b.AttachRequester(0, c)
		for _, a := range refs {
			done, _ := c.Access(coherence.EvRead, a, 0, coherence.ClassShared)
			for !done {
				if !b.Slotted(0) {
					b.RequestSlot(0)
				}
				if req, res, ok := b.Tick(); ok {
					c.BusCompleted(req, res)
				}
				if _, ok := c.TakeResolved(); ok {
					done = true
				}
			}
		}
		st := c.Stats()
		simMisses := st.Reads - st.ReadHits
		if simMisses != p.Misses(size) {
			t.Fatalf("size %d: simulator missed %d, stack algorithm says %d",
				size, simMisses, p.Misses(size))
		}
	}
}

// Property: for any trace, refs = colds + sum of all reuse counts.
func TestQuickAccounting(t *testing.T) {
	f := func(addrs []uint8) bool {
		p := newMattson()
		for _, a := range addrs {
			p.Touch(bus.Addr(a))
		}
		var reuses uint64
		for _, d := range p.Distances() {
			reuses += d.Misses
		}
		return p.Refs() == p.Colds()+reuses && int(p.Colds()) == p.Footprint()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
