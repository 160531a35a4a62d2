package machine

import "fmt"

// sample is one scheduled observation: fn fires when the machine reaches
// cycle next, then every interval cycles after (interval 0 = once).
type sample struct {
	next, interval uint64
	fn             func(m *Machine)
}

// Sampler drives a Machine while firing scheduled observations at exact
// machine cycles. It is how time-series measurements (bus utilization
// over time, lock-convoy phases, warmup-vs-steady-state miss ratios) are
// taken without polluting the machine's own cycle loop. Observations due
// at the same cycle fire in registration order — the Sampler's own
// contract; the event heap it replaced ordered them by when each was last
// re-scheduled, which differs once a periodic observation has re-armed.
type Sampler struct {
	m       *Machine
	samples []sample
}

// NewSampler wraps a machine. Intervals count from the machine's current
// cycle.
func NewSampler(m *Machine) *Sampler {
	return &Sampler{m: m}
}

// Every schedules fn at each multiple of interval cycles from now, for the
// lifetime of the run. fn receives the machine at the sampling instant.
func (s *Sampler) Every(interval uint64, fn func(m *Machine)) {
	if interval == 0 {
		panic("machine: zero sampling interval")
	}
	s.samples = append(s.samples, sample{next: s.m.Cycle() + interval, interval: interval, fn: fn})
}

// At schedules fn once at the given absolute machine cycle. A cycle the
// machine has already passed is a caller bug and panics.
func (s *Sampler) At(cycle uint64, fn func(m *Machine)) {
	if now := s.m.Cycle(); cycle < now {
		panic(fmt.Sprintf("machine: sampling at cycle %d, before now %d", cycle, now))
	}
	s.samples = append(s.samples, sample{next: cycle, fn: fn})
}

// fire runs every observation due at the machine's current cycle. It
// indexes the slice afresh around each callback, so an observation may
// schedule further ones.
func (s *Sampler) fire() {
	now := s.m.Cycle()
	for i := 0; i < len(s.samples); i++ {
		if s.samples[i].next > now {
			continue
		}
		s.samples[i].fn(s.m)
		if iv := s.samples[i].interval; iv != 0 {
			s.samples[i].next += iv
		} else {
			s.samples[i].next = ^uint64(0) // one-shot: never due again
		}
	}
}

// Run steps the machine until it is done or maxCycles elapse, firing
// scheduled observations at their exact cycles (an observation at cycle c
// sees the machine state after cycle c completed).
func (s *Sampler) Run(maxCycles uint64) (uint64, error) {
	start := s.m.Cycle()
	for s.m.Cycle()-start < maxCycles && !s.m.Done() {
		if err := s.m.Step(); err != nil {
			return s.m.Cycle() - start, err
		}
		s.fire()
	}
	return s.m.Cycle() - start, s.m.Err()
}

// UtilizationSeries samples bus utilization over windows of the given
// interval while running the machine to completion: the time-series view
// of the Section 7 saturation analysis. It returns one utilization value
// per completed window.
func (s *Sampler) UtilizationSeries(interval, maxCycles uint64) ([]float64, error) {
	if interval == 0 {
		return nil, fmt.Errorf("machine: zero sampling interval")
	}
	var series []float64
	var lastBusy, lastTotal uint64
	s.Every(interval, func(m *Machine) {
		st := m.buses.Stats()
		busy, total := st.BusyCycles, st.BusyCycles+st.IdleCycles
		if total > lastTotal {
			series = append(series, float64(busy-lastBusy)/float64(total-lastTotal))
		}
		lastBusy, lastTotal = busy, total
	})
	if _, err := s.Run(maxCycles); err != nil {
		return series, err
	}
	return series, nil
}
