package mrc

import (
	"fmt"
	"sync"

	"repro/internal/bus"
	"repro/internal/machine"
)

// feedChunk is the references per hand-off to a drain: 16 KiB, small
// enough to stay in cache, large enough to pay for starting a goroutine.
const feedChunk = 2048

// ref is one buffered reference: the issuing PE and its address.
type ref struct {
	pe int32
	a  bus.Addr
}

// feed carries one machine's references from its probes to its
// profilers (see Feeding in the package doc).
type feed struct {
	fill, full []ref
	busy       sync.WaitGroup // the drain in flight, at most one
	drain      func()         // applies full; built once, so ship spawns without allocating
	perPE      []*Profiler
	global     *Profiler
}

// apply touches each reference's PE profiler and the machine-wide one.
func (f *feed) apply(refs []ref) {
	for _, r := range refs {
		f.perPE[r.pe].Touch(r.a)
		f.global.Touch(r.a)
	}
}

// ship hands the full fill buffer to a new drain once the previous drain
// is done with the other buffer, so chunks are applied in stream order.
func (f *feed) ship() {
	f.busy.Wait()
	f.fill, f.full = f.full[:0], f.fill
	f.busy.Add(1)
	go f.drain()
}

// settle brings every profiler of an attached profiler's feed up to date:
// it waits for the drain in flight, then applies the partial fill buffer.
func (p *Profiler) settle() {
	if f := p.feed; f != nil {
		f.busy.Wait()
		f.apply(f.fill)
		f.fill = f.fill[:0]
	}
}

// probe buffers one PE's references into its machine's feed; the CPU
// phase visits PEs in index order, so the stream is deterministic.
type probe struct {
	pe   int32
	feed *feed
}

// OnRef implements cache.Probe.
func (p *probe) OnRef(a bus.Addr) {
	f := p.feed
	f.fill = append(f.fill, ref{pe: p.pe, a: a})
	if len(f.fill) == feedChunk {
		f.ship()
	}
}

// Set is one machine's attached profilers: one per PE plus the
// machine-wide union stream (the what-if curve for a single shared
// cache serving every PE).
type Set struct {
	PerPE  []*Profiler
	Global *Profiler
}

// Attach installs fresh profilers on m, one feed per machine with at most
// one drain in flight.
func Attach(m *machine.Machine) *Set {
	f := &feed{
		fill:   make([]ref, 0, feedChunk),
		full:   make([]ref, 0, feedChunk),
		perPE:  make([]*Profiler, m.Processors()),
		global: New(),
	}
	f.drain = func() {
		f.apply(f.full)
		f.busy.Done()
	}
	f.global.feed = f
	for i := range f.perPE {
		f.perPE[i] = New()
		f.perPE[i].feed = f
		m.Cache(i).SetProbe(&probe{pe: int32(i), feed: f})
	}
	return &Set{PerPE: f.perPE, Global: f.global}
}

// Detach removes the probes from every cache of m, restoring the
// zero-overhead unprofiled path; references already buffered still count.
func Detach(m *machine.Machine) {
	for i := 0; i < m.Processors(); i++ {
		m.Cache(i).SetProbe(nil)
	}
}

// CurveDoc is one profiler's serialized curve. Scope is "machine" for
// the union stream or "pe<N>" for a single PE. Points are ascending in
// Lines — emission is array-ordered, never a map walk, so the rendered
// bytes are deterministic.
type CurveDoc struct {
	Scope     string       `json:"scope"`
	Refs      uint64       `json:"refs"`
	Colds     uint64       `json:"colds"`
	Footprint int          `json:"footprint"`
	Points    []CurvePoint `json:"points"`
}

// docFor serializes one profiler.
func docFor(scope string, p *Profiler, sizes []int) CurveDoc {
	return CurveDoc{
		Scope:     scope,
		Refs:      p.Refs(),
		Colds:     p.Colds(),
		Footprint: p.Footprint(),
		Points:    p.Curve(sizes),
	}
}

// Docs serializes the set's curves in fixed order: machine-wide first,
// then pe0..peN.
func (s *Set) Docs(sizes []int) []CurveDoc {
	out := make([]CurveDoc, 0, len(s.PerPE)+1)
	out = append(out, docFor("machine", s.Global, sizes))
	for i, p := range s.PerPE {
		out = append(out, docFor(fmt.Sprintf("pe%d", i), p, sizes))
	}
	return out
}

// Capture is one profiled trial: the machine shape and seed it ran
// under, plus the attached profiler set.
type Capture struct {
	Shape string
	Seed  uint64
	Set   *Set
}

// Collector accumulates captures across the trials an experiment runs.
// Experiments reach it through Params.Profile: Params.Machine attaches a
// fresh Set to every machine it constructs, and an experiment that runs
// a reference stream with no machine feeds a Set itself and adds it, so
// a multi-shape experiment yields one capture per shape. Append order is
// the experiment's deterministic trial order; the mutex only guards
// against engines running trials of one job concurrently.
type Collector struct {
	mu   sync.Mutex
	caps []Capture
}

// Add records a capture.
func (c *Collector) Add(shape string, seed uint64, s *Set) {
	c.mu.Lock()
	c.caps = append(c.caps, Capture{Shape: shape, Seed: seed, Set: s})
	c.mu.Unlock()
}

// Attach profiles m and records the capture.
func (c *Collector) Attach(shape string, seed uint64, m *machine.Machine) {
	c.Add(shape, seed, Attach(m))
}

// Captures returns the recorded trials in capture order.
func (c *Collector) Captures() []Capture {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Capture, len(c.caps))
	copy(out, c.caps)
	return out
}
