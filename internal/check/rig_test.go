package check

import (
	"os"
	"testing"

	"repro/internal/bus"
	"repro/internal/coherence"
	"repro/internal/machine"
)

// onRig is Run on a rig of cfg's shape, for the machine configurations the
// exported API has no option for.
func onRig(cfg machine.Config, n int) func(Options) (Result, error) {
	return func(o Options) (Result, error) {
		r, err := newRig(cfg, n)
		if err != nil {
			return Result{}, err
		}
		return r.explore(o)
	}
}

// lemmaFor is the configuration lemma the paper states for p, if any.
func lemmaFor(p coherence.Protocol) func(Snapshot) error {
	switch p.Name() {
	case "rb", "rb-dirty":
		return RBLemma
	case "rwb":
		return RWBLemma
	}
	return nil
}

// muteBus is an engine fault, not a table fault: every transaction executes
// with snooping suppressed, so no cache invalidates, snarfs or interrupts.
type muteBus struct{}

func (muteBus) WedgeArbitration(uint64) bool            { return false }
func (muteBus) OnGrant(uint64, bus.Request) bus.Verdict { return bus.VerdictMute }

// TestProofBitesOnTheEngine: with the tables intact and the bus broken, the
// exploration must find a stale read. An explorer that interprets the table
// itself cannot: the fault is in code it never runs.
func TestProofBitesOnTheEngine(t *testing.T) {
	for _, p := range []coherence.Protocol{coherence.New(coherence.KindRB), coherence.NewRWB(2)} {
		r, err := newRig(machine.Config{Protocol: p}, 2)
		if err != nil {
			t.Fatal(err)
		}
		r.m.Buses().SetInjector(muteBus{})
		_, err = r.explore(Options{})
		v, ok := err.(*Violation)
		if !ok || len(v.Trace) == 0 {
			t.Fatalf("%s on a mute bus: got %v, want a violation with its trace", p.Name(), err)
		}
		t.Logf("%s: %v", p.Name(), v)
	}
}

// TestLatencyAndSecondBusReachTheSameStates: a memory that holds the bus for
// three more cycles per transaction, and a second bus that takes the other
// address (so an eviction's write-back and its fetch use different arbiters),
// change when things happen and nothing else: the reachable states are the
// default machine's, digest for digest.
func TestLatencyAndSecondBusReachTheSameStates(t *testing.T) {
	t.Parallel() // the censuses share nothing: every exploration builds its own machine
	want, err := os.ReadFile("testdata/reachable.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []machine.Config{{MemLatency: 3}, {Buses: 2}} {
		got := censusAll(t, subjects(), func(s subject, n int) (string, error) {
			cfg.Protocol = s.proto
			return census(onRig(cfg, n), nil)
		})
		if got != string(want) {
			t.Errorf("MemLatency %d, Buses %d differs from testdata/reachable.golden:\n%s", cfg.MemLatency, cfg.Buses, got)
		}
	}
}

// TestTwoPhaseGolden explores ablation A8, the paper's prose Test-and-Set: a
// locked bus read, the test in the processor, and an unlocking write-back.
// The locked read is an ordinary bus read to the other caches and a failed
// attempt still writes, so the reachable space differs from the fused
// transaction's; the theorem and both configuration lemmas must hold on it
// all the same. Each action runs alone here: that the lock register keeps
// the two legs atomic when other PEs' operations are in flight between them
// is not explored (ROADMAP direction 3, "Transient states").
func TestTwoPhaseGolden(t *testing.T) {
	t.Parallel() // the censuses share nothing: every exploration builds its own machine
	got := censusAll(t, registered(), func(s subject, n int) (string, error) {
		return census(onRig(machine.Config{Protocol: s.proto, TwoPhaseRMW: true}, n), lemmaFor(s.proto))
	})
	compareGolden(t, "testdata/twophase.golden", got)
}
