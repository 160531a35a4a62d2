// Package batch amortizes machine construction across trials that share
// a configuration *shape* and differ only in seed — the dominant cost of
// multi-seed statistics: every Section 7 curve is a mean over seeds of
// the same machine, yet building that machine (page directories, cache
// line arenas, bus registries, the workload models' LRU stacks) dwarfs
// the cost of simulating the smaller shapes.
//
// An Arena owns one recyclable machine per shape. The first trial of a
// shape constructs the machine; every later trial rolls it back with
// Machine.Reset (generation-counter arenas, agents re-seeded in place)
// or, for agents that cannot re-seed, Machine.ResetWith (fresh agents on
// the recycled machine). Machine.Reset's byte-identity contract — a
// reset machine's traces, stats, and images equal a fresh one's, pinned
// by TestResetEqualsFresh — is what lets callers fuse trials without
// re-verifying outputs.
//
// Arenas are single-goroutine by design. The sweep engine no longer uses
// them: it dispatches one job at a time and every job builds its own
// machines, which measured faster than fusing a spec's seeds onto one
// worker's arena. The package stays only while the frozen benchmark/
// module imports it (ROADMAP direction 6).
package batch

import (
	"repro/internal/machine"
	"repro/internal/workload"
)

// Arena recycles machines by configuration shape. The zero value is not
// usable; call New.
type Arena struct {
	machines map[string]*machine.Machine
	// trials and reuses count arena traffic, for instrumentation and the
	// package's own reuse tests.
	trials, reuses int
}

// New returns an empty arena.
func New() *Arena {
	return &Arena{machines: make(map[string]*machine.Machine)}
}

// Machine returns a machine for the given shape, seed and config:
// freshly constructed on the shape's first trial, recycled afterwards.
//
// shape must uniquely name the configuration within the arena's scope
// (one experiment run, in the sweep engine's usage) — two calls with the
// same shape string must pass equivalent cfg and agents constructors.
// agents() must build the agents for exactly this trial's seed; it is
// consulted on first construction and, per trial, when the shape's
// agents do not all implement workload.Reseeder (then the agents are
// rebuilt but every machine arena is still reused). When they do, the
// recycled machine re-seeds them in place and the trial allocates
// nothing at all.
func (a *Arena) Machine(shape string, cfg machine.Config, seed uint64, agents func() []workload.Agent) (*machine.Machine, error) {
	a.trials++
	m, ok := a.machines[shape]
	if !ok {
		m, err := machine.New(cfg, agents())
		if err != nil {
			return nil, err
		}
		a.machines[shape] = m
		return m, nil
	}
	a.reuses++
	if err := m.Reset(seed); err != nil {
		// Non-Reseeder agents: rebuild them for this seed, recycle the
		// rest of the machine.
		if err := m.ResetWith(agents()); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Reuses reports how many trials were served by recycling a machine
// rather than constructing one.
func (a *Arena) Reuses() int { return a.reuses }

// Trials reports how many machines the arena has handed out in total.
func (a *Arena) Trials() int { return a.trials }

// Run streams a set of seed-only trials through one shape: the machine
// is constructed (or recycled) for the first seed, then reset and reused
// for each subsequent one, with run invoked per trial. Every agent must
// implement workload.Reseeder — this is the zero-allocation streaming
// path; mixed-agent shapes go through Machine per trial instead.
func (a *Arena) Run(shape string, cfg machine.Config, seeds []uint64, agents func() []workload.Agent, run func(seed uint64, m *machine.Machine) error) error {
	if len(seeds) == 0 {
		return nil
	}
	m, err := a.Machine(shape, cfg, seeds[0], agents)
	if err != nil {
		return err
	}
	if err := run(seeds[0], m); err != nil {
		return err
	}
	a.trials += len(seeds) - 1
	a.reuses += len(seeds) - 1
	return stream(m, seeds[1:], run)
}

// stream is the steady-state batch trial loop: generation-reset, run,
// repeat. Nothing here may allocate — the whole point of the arena is
// that a trial's marginal cost is simulation alone, so the loop carries
// the same allocation-freedom contract as the machine's cycle loop.
//
//hotpath:allocfree
func stream(m *machine.Machine, seeds []uint64, run func(seed uint64, m *machine.Machine) error) error {
	for _, seed := range seeds {
		if err := m.Reset(seed); err != nil {
			return err
		}
		if err := run(seed, m); err != nil {
			return err
		}
	}
	return nil
}
