// Package check mechanizes the Section 4 consistency proof: it explores the
// product machine of N caches plus memory for a single address, through
// every interleaving of processor reads, writes, Test-and-Sets and
// evictions, and verifies at each step that
//
//   - every read, in-cache or from the bus, and every Test-and-Set's locked
//     read delivers the latest written value (the theorem: "Each PE always
//     reads the latest value written");
//   - the latest value always survives somewhere (no lost updates);
//   - at most one cache interrupts a bus read, and the retried read is not
//     interrupted again;
//   - every operation completes;
//   - the protocol-specific configuration lemma holds (for RB: shared or
//     local configurations only; for RWB: plus the single-F intermediate).
//
// The transition relation is the simulator itself. Run builds one
// machine.Machine with one-line caches; for each (state, action) it restores
// every cache's line and the memory word from the state, hands one PE the
// operation, steps the machine until the operation has been delivered, and
// reads the successor back from Cache.Entries and Memory.Peek. Nothing here
// interprets a protocol table: what a bus read does is what internal/cache
// and internal/bus do, pending requests and the interrupt's retry included.
//
// Values are tokens. A state records only whether each copy is the latest,
// so a restored copy holds the "latest" word or the "stale" one, and a write
// or a successful Test-and-Set mints a third, fresh word that is the latest
// from then on. That is exact for the properties above because no protocol
// inspects data, with one exception: the Test-and-Set's zero test. It is
// explored as two actions that differ only in the encoding. ts-succeed
// restores the latest value as 0, so that the real Test-and-Set succeeds,
// ts-fail as a non-zero word; stale is non-zero in both, so a locked read
// that observes it fails the test and delivers a word visibly not the latest.
//
// An eviction is a read of a second address: every address maps to the one
// frame, so the fetch reuses it, after whatever write-back the cache owes.
// Likewise a cache that does not hold the address is restored holding the
// second one, Invalid.
package check

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/workload"
)

// LineView is one cache's view of the address in a Snapshot.
type LineView struct {
	Present   bool
	State     coherence.State
	Aux       uint8
	Dirty     bool
	HasLatest bool
}

// Snapshot is a product-machine state offered to invariant predicates.
type Snapshot struct {
	Lines     []LineView
	MemLatest bool
}

// String renders the configuration like the paper's figures: one letter
// per cache plus the memory flag.
func (s Snapshot) String() string {
	var b strings.Builder
	for i, ln := range s.Lines {
		if i > 0 {
			b.WriteByte(' ')
		}
		if !ln.Present {
			b.WriteString("NP")
			continue
		}
		b.WriteString(ln.State.Letter())
		if ln.Dirty {
			b.WriteByte('*')
		}
		if ln.HasLatest {
			b.WriteByte('+')
		}
	}
	if s.MemLatest {
		b.WriteString(" | mem+")
	} else {
		b.WriteString(" | mem-")
	}
	return b.String()
}

// Options configures an exploration.
type Options struct {
	// Caches is N, the number of processing elements. 2..5 is practical.
	Caches int
	// Invariant, when non-nil, is checked at every reachable state.
	// RBLemma and RWBLemma encode the paper's configuration lemmas.
	Invariant func(Snapshot) error
	// MaxStates aborts pathological explorations (0 = 5,000,000).
	MaxStates int
}

// Result summarizes a completed exploration.
type Result struct {
	States      int // distinct reachable product states
	Transitions int // explored (state, action) pairs
}

// Violation is a property failure with the action trace that reaches it.
type Violation struct {
	Property string
	State    Snapshot
	Trace    []string // actions from the initial state
}

func (v *Violation) Error() string {
	return fmt.Sprintf("check: %s at [%s] after %s",
		v.Property, v.State, strings.Join(v.Trace, "; "))
}

// state is the packed product state used as a map key.
type state struct {
	lines [maxCaches]LineView
	n     int
	mem   bool
}

const maxCaches = 6

func (s state) snapshot() Snapshot {
	return Snapshot{Lines: append([]LineView(nil), s.lines[:s.n]...), MemLatest: s.mem}
}

// Run explores the product machine of proto with opt.Caches caches.
func Run(proto coherence.Protocol, opt Options) (Result, error) {
	r, err := newRig(machine.Config{Protocol: proto}, opt.Caches)
	if err != nil {
		return Result{}, err
	}
	return r.explore(opt)
}

// explore is the breadth-first search over product states; r.apply is its
// transition relation.
func (r *rig) explore(opt Options) (Result, error) {
	maxStates := cmp.Or(opt.MaxStates, 5_000_000)
	initial := state{n: len(r.agents), mem: true}
	parents := map[state]edge{initial: {}}
	queue := []state{initial}
	res := Result{States: 1}

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if opt.Invariant != nil {
			if err := opt.Invariant(cur.snapshot()); err != nil {
				return res, violation(parents, cur, err.Error(), "")
			}
		}
		for _, act := range actions(cur) {
			res.Transitions++
			next, verr := r.apply(cur, act)
			if verr != "" {
				return res, violation(parents, cur, verr, act.String())
			}
			if _, seen := parents[next]; !seen {
				parents[next] = edge{from: cur, action: act.String()}
				queue = append(queue, next)
				res.States++
				if res.States > maxStates {
					return res, fmt.Errorf("check: state space exceeds %d states", maxStates)
				}
			}
		}
	}
	return res, nil
}

// edge records how a state was first reached, for counterexample traces.
type edge struct {
	from   state
	action string
}

func violation(parents map[state]edge, at state, prop, lastAction string) error {
	var trace []string
	if lastAction != "" {
		trace = append(trace, lastAction)
	}
	for ed := parents[at]; ed.action != ""; ed = parents[ed.from] {
		trace = append(trace, ed.action)
	}
	slices.Reverse(trace) // into chronological order
	return &Violation{Property: prop, State: at.snapshot(), Trace: trace}
}

// action is one explorable step: PE pe performs kind.
type action struct {
	pe   int
	kind int
}

const (
	actRead = iota
	actWrite
	actTSFail
	actTSSucceed
	actEvict
)

// kinds holds, per action kind, its name in traces and the operation the PE
// is handed; see the package comment for the eviction and the tokens.
var kinds = [...]struct {
	name string
	op   workload.Op
}{
	actRead:      {"read", workload.Read(addr, class)},
	actWrite:     {"write", workload.Write(addr, tokFresh, class)},
	actTSFail:    {"ts-fail", workload.TestSet(addr, tokFresh)},
	actTSSucceed: {"ts-succeed", workload.TestSet(addr, tokFresh)},
	actEvict:     {"evict", workload.Read(other, class)},
}

func (a action) String() string { return fmt.Sprintf("PE%d %s", a.pe, kinds[a.kind].name) }

// actions enumerates every step from a state: per PE a read, a write, both
// branches of a Test-and-Set, and an eviction if the line is present.
func actions(s state) []action {
	var out []action
	for pe := 0; pe < s.n; pe++ {
		for kind := range kinds {
			if kind != actEvict || s.lines[pe].Present {
				out = append(out, action{pe, kind})
			}
		}
	}
	return out
}

const (
	// addr is the product machine's one address; other shares its frame.
	addr  bus.Addr = 0
	other bus.Addr = 1

	// The value tokens (see the package comment). Under ts-succeed the
	// latest value is 0 instead of tokLatest.
	tokLatest bus.Word = 1
	tokStale  bus.Word = 2
	tokFresh  bus.Word = 3

	// class is a reference class no registered scheme keeps out of its
	// cache; the transparent ones do not look at it.
	class = coherence.ClassLocal

	// maxSteps bounds one operation; the longest (write-back, killed read,
	// retry, write-through) is four transactions of MemLatency+1 cycles.
	maxSteps = 256
)

// rig is the machine the exploration drives, one per Run.
type rig struct {
	m      *machine.Machine
	caches []*cache.Cache
	agents []*agent
}

// newRig builds cfg's machine with n PEs and one-line caches.
func newRig(cfg machine.Config, n int) (*rig, error) {
	if n < 1 || n > maxCaches {
		return nil, fmt.Errorf("check: Caches = %d, need 1..%d", n, maxCaches)
	}
	r := &rig{}
	var programs []workload.Agent
	for i := 0; i < n; i++ {
		a := &agent{}
		r.agents, programs = append(r.agents, a), append(programs, a)
	}
	cfg.CacheLines, cfg.CacheWays = 1, 1
	var err error
	if r.m, err = machine.New(cfg, programs); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	for i := range programs {
		r.caches = append(r.caches, r.m.Cache(i))
	}
	return r, nil
}

// agent is a PE's program: it idles on one-cycle computes, so the processor
// asks again every cycle, until given one operation, issues it, and keeps
// the value the processor hands back.
type agent struct {
	op    workload.Op
	phase uint8 // 0 idle, 1 op not yet issued, 2 op issued and not yet delivered
	value bus.Word
}

// Next implements workload.Agent.
func (a *agent) Next(prev workload.Result) workload.Op {
	switch a.phase {
	case 1:
		a.phase = 2
		return a.op
	case 2:
		a.phase, a.value = 0, prev.Value
	}
	return workload.Compute(1)
}

// apply executes act from s on the machine and returns the state it leaves,
// or the property it violated.
func (r *rig) apply(s state, act action) (state, string) {
	latest := tokLatest
	if act.kind == actTSSucceed {
		latest = 0
	}
	word := func(hasLatest bool) bus.Word {
		if hasLatest {
			return latest
		}
		return tokStale
	}
	for i := 0; i < s.n; i++ {
		e := cache.Entry{Addr: other}
		if ln := s.lines[i]; ln.Present {
			e = cache.Entry{Addr: addr, State: ln.State, Aux: ln.Aux, Dirty: ln.Dirty, Data: word(ln.HasLatest)}
		}
		r.caches[i].Restore(e)
	}
	r.m.Memory().Poke(addr, word(s.mem))

	a := r.agents[act.pe]
	a.op, a.phase = kinds[act.kind].op, 1
	flushed, steps := r.flushSupplied(), 0
	inFlight := func() bool { return a.phase != 0 || slices.ContainsFunc(r.caches, (*cache.Cache).Busy) }
	for ; steps < maxSteps && inFlight(); steps++ {
		if err := r.m.Step(); err != nil {
			return s, err.Error()
		}
	}
	// A bus read interrupted again and again never completes: name the
	// interrupt, not the hang it causes.
	if n := r.flushSupplied() - flushed; n > 1 {
		return s, fmt.Sprintf("%v: its bus read was interrupted %d times, more than the one flush by the one owner", act, n)
	}
	if steps == maxSteps {
		return s, fmt.Sprintf("%v did not complete in %d cycles", act, maxSteps)
	}

	if act.kind != actWrite && act.kind != actEvict && a.value != latest {
		return s, fmt.Sprintf("%v delivered a stale value", act)
	}
	if act.kind == actWrite || act.kind == actTSSucceed {
		latest = tokFresh // written, the Test-and-Set having just read 0
	}

	next := state{n: s.n, mem: r.m.Memory().Peek(addr) == latest}
	survives := next.mem
	for i := 0; i < s.n; i++ {
		for _, e := range r.caches[i].Entries() {
			if e.Addr != addr {
				continue
			}
			next.lines[i] = LineView{Present: true, State: e.State, Aux: e.Aux, Dirty: e.Dirty, HasLatest: e.Data == latest}
			survives = survives || next.lines[i].HasLatest && e.State != coherence.Invalid
		}
	}
	if !survives {
		return s, fmt.Sprintf("%v lost the latest value", act)
	}
	return next, ""
}

// flushSupplied totals the bus reads the caches have interrupted so far.
func (r *rig) flushSupplied() uint64 {
	var n uint64
	for _, c := range r.caches {
		n += c.Stats().FlushSupplied
	}
	return n
}

// RBLemma is the Section 4 lemma for the RB scheme: every reachable
// configuration is either shared (every present copy Readable) or local
// (exactly one Local copy, every other present copy Invalid), and the
// latest value is held by the Local copy if one exists.
func RBLemma(s Snapshot) error {
	return lemma(s, false)
}

// RWBLemma extends RBLemma with the RWB intermediate configuration: one
// FirstWrite copy with every other present copy Readable, all holding the
// latest (broadcast) value, memory current.
func RWBLemma(s Snapshot) error {
	return lemma(s, true)
}

func lemma(s Snapshot, allowF bool) error {
	var locals, firsts, readables, invalids int
	for _, ln := range s.Lines {
		if !ln.Present {
			continue
		}
		switch ln.State {
		case coherence.Local:
			locals++
			if !ln.HasLatest {
				return fmt.Errorf("a Local copy is stale")
			}
		case coherence.FirstWrite:
			firsts++
			if !allowF {
				return fmt.Errorf("FirstWrite state in an RB machine")
			}
			if !ln.HasLatest {
				return fmt.Errorf("a FirstWrite copy is stale")
			}
		case coherence.Readable:
			readables++
			if !ln.HasLatest {
				return fmt.Errorf("a Readable copy is stale")
			}
		case coherence.Invalid:
			invalids++
		default:
			return fmt.Errorf("foreign state %v", ln.State)
		}
	}
	if locals > 1 {
		return fmt.Errorf("%d Local copies", locals)
	}
	if firsts > 1 {
		return fmt.Errorf("%d FirstWrite copies", firsts)
	}
	if locals == 1 && (readables > 0 || firsts > 0) {
		return fmt.Errorf("local configuration with %d Readable and %d FirstWrite copies", readables, firsts)
	}
	if locals == 0 && !s.MemLatest {
		return fmt.Errorf("no Local copy but memory is stale")
	}
	return nil
}
