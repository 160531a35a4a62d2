package check

import (
	"strings"
	"testing"

	"repro/internal/coherence"
)

// TestRBConsistentForNUpTo5 is the machine-checked Section 4 theorem for
// the RB scheme, including the configuration lemma.
func TestRBConsistentForNUpTo5(t *testing.T) {
	for n := 1; n <= 5; n++ {
		res, err := Run(coherence.New(coherence.KindRB), Options{Caches: n, Invariant: RBLemma})
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if res.States < n { // sanity: something was explored
			t.Fatalf("N=%d: only %d states", n, res.States)
		}
		t.Logf("RB N=%d: %d states, %d transitions", n, res.States, res.Transitions)
	}
}

// TestRWBConsistentForNUpTo5 is the same for the RWB scheme (k=2), with
// the intermediate-configuration lemma.
func TestRWBConsistentForNUpTo5(t *testing.T) {
	for n := 1; n <= 5; n++ {
		res, err := Run(coherence.NewRWB(2), Options{Caches: n, Invariant: RWBLemma})
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		t.Logf("RWB N=%d: %d states, %d transitions", n, res.States, res.Transitions)
	}
}

// TestRWBThresholdVariantsConsistent checks the footnote-6 generalization
// for k = 3 and 4.
func TestRWBThresholdVariantsConsistent(t *testing.T) {
	for _, k := range []uint8{3, 4} {
		res, err := Run(coherence.NewRWB(k), Options{Caches: 3, Invariant: RWBLemma})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		t.Logf("RWB k=%d N=3: %d states", k, res.States)
	}
}

// TestBaselinesConsistent: the comparison protocols must also satisfy the
// read-latest theorem (they just do it with more bus traffic).
func TestBaselinesConsistent(t *testing.T) {
	for _, name := range []string{"goodman", "writethrough", "nocache", "illinois"} {
		p, err := coherence.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, rerr := Run(p, Options{Caches: 4})
		if rerr != nil {
			t.Fatalf("%s: %v", name, rerr)
		}
		t.Logf("%s N=4: %d states", name, res.States)
	}
}

// brokenNoInvalidate omits RB's invalidate-on-bus-write: the checker must
// find a stale read.
type brokenNoInvalidate struct{ *coherence.Table }

func (b brokenNoInvalidate) OnSnoop(s coherence.State, aux uint8, dirty bool, ev coherence.SnoopEvent) coherence.SnoopOutcome {
	if s == coherence.Readable && ev == coherence.SnBusWrite {
		return coherence.SnoopOutcome{Next: coherence.Readable}
	}
	return b.Table.OnSnoop(s, aux, dirty, ev)
}

func TestCheckerCatchesMissingInvalidate(t *testing.T) {
	_, err := Run(brokenNoInvalidate{coherence.New(coherence.KindRB)}, Options{Caches: 2})
	if err == nil {
		t.Fatal("broken protocol passed")
	}
	v, ok := err.(*Violation)
	if !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
	if !strings.Contains(v.Property, "stale") {
		t.Fatalf("property = %q, want a staleness violation", v.Property)
	}
	if len(v.Trace) == 0 {
		t.Fatal("no counterexample trace")
	}
	t.Logf("counterexample: %v", v)
}

// brokenNoFlush omits the Local owner's read interrupt: bus reads then
// return stale memory.
type brokenNoFlush struct{ *coherence.Table }

func (b brokenNoFlush) OnSnoop(s coherence.State, aux uint8, dirty bool, ev coherence.SnoopEvent) coherence.SnoopOutcome {
	if s == coherence.Local && ev == coherence.SnBusRead {
		return coherence.SnoopOutcome{Next: coherence.Local}
	}
	return b.Table.OnSnoop(s, aux, dirty, ev)
}

func TestCheckerCatchesMissingFlush(t *testing.T) {
	_, err := Run(brokenNoFlush{coherence.New(coherence.KindRB)}, Options{Caches: 2})
	if err == nil {
		t.Fatal("broken protocol passed")
	}
	if !strings.Contains(err.Error(), "stale") {
		t.Fatalf("unexpected violation: %v", err)
	}
}

// brokenNoWriteback drops Local lines on eviction: the latest value is
// lost.
type brokenNoWriteback struct{ *coherence.Table }

func (brokenNoWriteback) WritebackOnEvict(s coherence.State, dirty bool) bool { return false }

func TestCheckerCatchesLostWriteback(t *testing.T) {
	_, err := Run(brokenNoWriteback{coherence.New(coherence.KindRB)}, Options{Caches: 2})
	if err == nil {
		t.Fatal("broken protocol passed")
	}
	if !strings.Contains(err.Error(), "lost") && !strings.Contains(err.Error(), "stale") {
		t.Fatalf("unexpected violation: %v", err)
	}
}

// brokenDoubleOwner makes Readable copies inhibit reads too: two owners
// answer one bus read.
type brokenDoubleOwner struct{ *coherence.Table }

func (b brokenDoubleOwner) OnSnoop(s coherence.State, aux uint8, dirty bool, ev coherence.SnoopEvent) coherence.SnoopOutcome {
	if s == coherence.Readable && ev == coherence.SnBusRead {
		return coherence.SnoopOutcome{Next: coherence.Readable, Inhibit: true}
	}
	return b.Table.OnSnoop(s, aux, dirty, ev)
}

func TestCheckerCatchesDoubleOwner(t *testing.T) {
	_, err := Run(brokenDoubleOwner{coherence.New(coherence.KindRB)}, Options{Caches: 3})
	if err == nil {
		t.Fatal("broken protocol passed")
	}
	if !strings.Contains(err.Error(), "interrupt") {
		t.Fatalf("unexpected violation: %v", err)
	}
}

// brokenLemma violates the configuration lemma without (immediately)
// violating read consistency: a Local line demoted by a bus write keeps
// state R instead of I under RB (RB caches do not read write data, so the
// copy is stale).
type brokenLemma struct{ *coherence.Table }

func (b brokenLemma) OnSnoop(s coherence.State, aux uint8, dirty bool, ev coherence.SnoopEvent) coherence.SnoopOutcome {
	if s == coherence.Local && ev == coherence.SnBusWrite {
		return coherence.SnoopOutcome{Next: coherence.Readable}
	}
	return b.Table.OnSnoop(s, aux, dirty, ev)
}

func TestLemmaInvariantCatchesStaleReadable(t *testing.T) {
	_, err := Run(brokenLemma{coherence.New(coherence.KindRB)}, Options{Caches: 2, Invariant: RBLemma})
	if err == nil {
		t.Fatal("lemma violation not caught")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Run(coherence.New(coherence.KindRB), Options{Caches: 0}); err == nil {
		t.Error("Caches=0 accepted")
	}
	if _, err := Run(coherence.New(coherence.KindRB), Options{Caches: 7}); err == nil {
		t.Error("Caches=7 accepted")
	}
	if _, err := Run(coherence.New(coherence.KindRB), Options{Caches: 3, MaxStates: 2}); err == nil {
		t.Error("MaxStates=2 not enforced")
	}
}

func TestSnapshotString(t *testing.T) {
	s := Snapshot{
		Lines: []LineView{
			{Present: true, State: coherence.Local, Dirty: true, HasLatest: true},
			{},
			{Present: true, State: coherence.Invalid},
		},
		MemLatest: false,
	}
	got := s.String()
	if !strings.Contains(got, "L*+") || !strings.Contains(got, "NP") || !strings.Contains(got, "mem-") {
		t.Fatalf("String() = %q", got)
	}
}

// TestDeterministicExploration: two runs visit identical state counts.
func TestDeterministicExploration(t *testing.T) {
	a, err1 := Run(coherence.NewRWB(2), Options{Caches: 3})
	b, err2 := Run(coherence.NewRWB(2), Options{Caches: 3})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if a != b {
		t.Fatalf("nondeterministic exploration: %+v vs %+v", a, b)
	}
}
