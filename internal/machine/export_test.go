package machine

import (
	"math/bits"

	"repro/internal/workload"
)

// Exports for the external ledger_test.go.
var (
	Update    = update    // the -update flag wide_test.go declares
	CoreShape = coreShape // a core-<shape> benchmark machine's config and agents
)

// RaceEnabled reports a build with the race detector.
const RaceEnabled = raceEnabled

// CountNext wraps agents, each Spinner left parkable, and returns a reader
// of their Next calls less the spins skipped while parked.
func CountNext(agents []workload.Agent) ([]workload.Agent, func() uint64) {
	agents, counted := countAgents(agents, true)
	return agents, func() (n uint64) {
		for _, a := range counted {
			n += a.nextCalls - a.skipped
		}
		return n
	}
}

// RunCountingNews runs n cycles as step does and sums the caches in the
// has-news set after each CPU phase: the request-line phase's work.
func (m *Machine) RunCountingNews(n int) (visits int, err error) {
	defer m.settle()
	for range n {
		m.cycle++
		m.busPhase()
		m.cpuPhase()
		for _, w := range m.news {
			visits += bits.OnesCount64(w)
		}
		m.snoopPhase()
	}
	return visits, m.err
}
