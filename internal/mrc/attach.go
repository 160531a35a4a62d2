package mrc

import (
	"fmt"
	"sync"

	"repro/internal/bus"
	"repro/internal/machine"
)

// probe feeds one PE's references into its own profiler and the shared
// machine-wide profiler. The CPU phase visits PEs in index order, so the
// machine-wide stream is the deterministic in-order interleaving.
type probe struct {
	pe     *Profiler
	global *Profiler
}

// OnRef implements cache.Probe.
//
//hotpath:allocfree
func (p *probe) OnRef(a bus.Addr) {
	p.pe.Touch(a)
	p.global.Touch(a)
}

// Set is one machine's attached profilers: one per PE plus the
// machine-wide union stream (the what-if curve for a single shared
// cache serving every PE).
type Set struct {
	PerPE  []*Profiler
	Global *Profiler
}

// Attach installs fresh profilers on every cache of m and returns them.
// Probes are machine wiring (they survive Machine.Reset), so a recycled
// machine must be re-attached per measured trial — which also gives each
// trial its own zeroed histograms.
func Attach(m *machine.Machine) *Set {
	n := m.Processors()
	s := &Set{Global: New(), PerPE: make([]*Profiler, n)}
	for i := 0; i < n; i++ {
		s.PerPE[i] = New()
		m.Cache(i).SetProbe(&probe{pe: s.PerPE[i], global: s.Global})
	}
	return s
}

// Detach removes the probes from every cache of m, restoring the
// zero-overhead unprofiled path.
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

// Collector accumulates captures across the machines an experiment
// builds. Experiments reach it through Params.Profile: Params.Machine
// attaches a fresh Set to every machine it constructs (or recycles), so
// a multi-shape experiment yields one capture per shape. Append order is
// the experiment's deterministic construction order; the mutex only
// guards against engines running trials of one job concurrently.
type Collector struct {
	mu   sync.Mutex
	caps []Capture
}

// Attach profiles m and records the capture.
func (c *Collector) Attach(shape string, seed uint64, m *machine.Machine) {
	s := Attach(m)
	c.mu.Lock()
	c.caps = append(c.caps, Capture{Shape: shape, Seed: seed, Set: s})
	c.mu.Unlock()
}

// Captures returns the recorded trials in capture order.
func (c *Collector) Captures() []Capture {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Capture, len(c.caps))
	copy(out, c.caps)
	return out
}
