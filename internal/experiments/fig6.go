package experiments

import (
	"repro/internal/bus"
	"repro/internal/coherence"
	"repro/internal/report"
)

// The Figure 6 scenarios: three PEs synchronize on a lock S. P2 acquires,
// the others spin, P2 releases, P1 acquires. The rows reproduce the
// (state, value) matrices of Figures 6-1, 6-2 and 6-3.

const lockS = bus.Addr(64)

func init() {
	register(Experiment{
		ID:      "fig6-1",
		Title:   "Synchronization with Test-and-Set for RB Scheme",
		Version: 1, // scripted walkthrough: no parameter axes
		Run:     figure61,
	})
	register(Experiment{
		ID:      "fig6-2",
		Title:   "Synchronization with Test-and-Test-and-Set for RB Scheme",
		Version: 1,
		Run:     figure62,
	})
	register(Experiment{
		ID:      "fig6-3",
		Title:   "Synchronization with Test-and-Test-and-Set for RWB Scheme",
		Version: 1,
		Run:     figure63,
	})
}

// prepare puts lock S in the all-Readable initial configuration of the
// figures ("Initial State": R(0) R(0) R(0), S=0) by having each PE read it.
func prepareLock(s *scenario) {
	for id := range s.caches {
		s.read(id, lockS)
	}
}

// figure61 reproduces Figure 6-1: plain Test-and-Set spinning under RB.
// Every unsuccessful attempt is a bus read-modify-write — the hot spot.
func figure61(Params) (*Table, error) {
	s := newScenario(coherence.New(coherence.KindRB), 3, 16)
	t := &report.Table{
		ID:      "fig6-1",
		Title:   "Synchronization with Test-and-Set for RB Scheme",
		Columns: figureColumns(3),
		Note: "spinning Test-and-Sets keep hitting the bus; the release is a local write " +
			"to the Local line, flushed to memory by the next locked read " +
			"(the paper's S column anticipates that flush)",
	}
	prepareLock(s)
	s.row(t, lockS, s.busTxns(), "Initial State")

	before := s.busTxns()
	s.testSet(1, lockS, 1) // P2 locks S
	s.row(t, lockS, before, "P2 Locks S")

	before = s.busTxns()
	for i := 0; i < 3; i++ { // others spin with TS
		s.testSet(0, lockS, 1)
		s.testSet(2, lockS, 1)
	}
	s.row(t, lockS, before, "Others try to get S (Bus Traffic)")

	before = s.busTxns()
	s.write(1, lockS, 0) // P2 releases S (local write: L is dirty now)
	s.row(t, lockS, before, "P2 releases S")

	before = s.busTxns()
	s.testSet(0, lockS, 1) // P1 gets S (locked read flushes the 0 first)
	s.row(t, lockS, before, "P1 get the S")

	before = s.busTxns()
	for i := 0; i < 3; i++ {
		s.testSet(2, lockS, 1)
		s.testSet(1, lockS, 1)
	}
	s.row(t, lockS, before, "Others try to get S")
	return t, nil
}

// figure62 reproduces Figure 6-2: Test-and-Test-and-Set under RB. While
// the lock is held the spinners loop in their caches with zero bus
// traffic.
func figure62(Params) (*Table, error) {
	s := newScenario(coherence.New(coherence.KindRB), 3, 16)
	t := &report.Table{
		ID:      "fig6-2",
		Title:   "Synchronization with Test-and-Test-and-Set for RB Scheme",
		Columns: figureColumns(3),
		Note:    "the spinning rows generate no bus traffic: the test part is satisfied by the cache",
	}
	prepareLock(s)
	s.row(t, lockS, s.busTxns(), "Initial State")

	before := s.busTxns()
	s.testTestSet(1, lockS, 1) // P2 locks S
	s.row(t, lockS, before, "P2 locks S")

	// Others' first test misses (their copies were invalidated); the
	// interrupted read refreshes everyone to R(1).
	before = s.busTxns()
	s.testTestSet(0, lockS, 1)
	s.testTestSet(2, lockS, 1)
	s.row(t, lockS, before, "Others test S (fetch refreshes all caches)")

	before = s.busTxns()
	for i := 0; i < 5; i++ { // now they spin entirely in cache
		s.testTestSet(0, lockS, 1)
		s.testTestSet(2, lockS, 1)
	}
	s.row(t, lockS, before, "Others try to get S (No Bus Traffic) (Load from Caches)")

	before = s.busTxns()
	s.write(1, lockS, 0) // P2 releases S: R->L write-through
	s.row(t, lockS, before, "P2 releases S")

	before = s.busTxns()
	s.read(0, lockS) // the spinners' next test: a bus read to S
	s.row(t, lockS, before, "A Bus Read to S")

	before = s.busTxns()
	s.testSet(0, lockS, 1) // P1's test saw 0; the TS succeeds
	s.row(t, lockS, before, "P1 get the S")

	before = s.busTxns()
	s.testTestSet(1, lockS, 1)
	s.testTestSet(2, lockS, 1)
	s.row(t, lockS, before, "Others try to get S")
	return t, nil
}

// figure63 reproduces Figure 6-3: TTS under RWB. The acquisition leaves
// the caches in the intermediate F/R configuration (every copy holds the
// new value), and the release needs only a bus invalidate.
func figure63(Params) (*Table, error) {
	s := newScenario(coherence.New(coherence.KindRWB), 3, 16)
	t := &report.Table{
		ID:      "fig6-3",
		Title:   "Synchronization with Test-and-Test-and-Set for RWB Scheme",
		Columns: figureColumns(3),
		Note: "compared with Figure 6-2: acquisitions broadcast the value (no invalidation), " +
			"so the spinners keep readable copies throughout",
	}
	prepareLock(s)
	s.row(t, lockS, s.busTxns(), "Initial State")

	before := s.busTxns()
	s.testTestSet(1, lockS, 1) // P2 locks S: R -> F, others snarf
	s.row(t, lockS, before, "P2 locks S")

	before = s.busTxns()
	for i := 0; i < 5; i++ { // spinners already hold R(1): zero traffic
		s.testTestSet(0, lockS, 1)
		s.testTestSet(2, lockS, 1)
	}
	s.row(t, lockS, before, "Others try to get S (No Bus Traffic) (Load from Caches)")

	before = s.busTxns()
	s.write(1, lockS, 0) // release: second uninterrupted write -> BI -> L
	s.row(t, lockS, before, "P2 releases S")

	before = s.busTxns()
	s.read(0, lockS) // next test: a bus read to S (flush + broadcast)
	s.row(t, lockS, before, "A Bus Read to S")

	before = s.busTxns()
	s.testSet(0, lockS, 1) // P1 gets S: R -> F, others snarf the 1
	s.row(t, lockS, before, "P1 get the S")

	before = s.busTxns()
	s.testTestSet(1, lockS, 1)
	s.testTestSet(2, lockS, 1)
	s.row(t, lockS, before, "Others try to get S")
	return t, nil
}
