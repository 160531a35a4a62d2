package machine

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/workload"
)

// hidden hides its agent's Spinner methods: a machine running it never
// parks, so it is the per-cycle reference a parking machine must match.
type hidden struct{ workload.Agent }

// parkRun is one machine of a parking-vs-reference pair, with what the
// comparison reads besides Metrics: the agents' own counters and every
// bus transaction.
type parkRun struct {
	m       *Machine
	locks   []*workload.Spinlock
	bars    []*workload.Barrier
	counted []*countingAgent
	trace   []txn
	matched int // trace entries sameRun has compared already
}

type txn struct {
	cycle uint64
	bus   int
	req   bus.Request
	res   bus.Result
}

// skipped sums the spins the machine credited instead of issuing.
func (r *parkRun) skipped() uint64 {
	var n uint64
	for _, a := range r.counted {
		n += a.skipped
	}
	return n
}

// newParkRun builds 4 PEs of kind ("ts" or "tts" Spinlocks, or "barrier")
// on cfg. With hide the agents are wrapped in hidden; otherwise in the
// Spinner-forwarding counter, which leaves parking live.
func newParkRun(t *testing.T, cfg Config, kind string, hide bool) *parkRun {
	t.Helper()
	r := &parkRun{}
	agents := make([]workload.Agent, 4)
	for i := range agents {
		switch kind {
		case "ts", "tts":
			strat := workload.StrategyTS
			if kind == "tts" {
				strat = workload.StrategyTTS
			}
			// Guarded words 116 and 132 share the lock's set at 16 and
			// 32 sets, so a victim choice weighs the lock line's LRU stamp.
			s := workload.MustSpinlock(workload.SpinlockConfig{
				Lock: 100, Strategy: strat, Iterations: 5,
				CriticalReads: 2, CriticalWrites: 2, GuardedBase: 116, GuardedWords: 17,
				ThinkCycles: 15, Seed: uint64(i + 1),
			})
			r.locks = append(r.locks, s)
			agents[i] = s
		case "barrier":
			b := workload.MustBarrier(workload.BarrierConfig{
				Lock: 0, Counter: 1, Sense: 2, Progress: 16,
				Participants: len(agents), Rounds: 3, WorkCycles: 3 + 37*i, ID: i,
			})
			r.bars = append(r.bars, b)
			agents[i] = b
		default:
			t.Fatalf("unknown kind %q", kind)
		}
	}
	if hide {
		for i, a := range agents {
			agents[i] = hidden{a}
		}
	} else {
		agents, r.counted = countAgents(agents, true)
	}
	r.m = MustNew(cfg, agents)
	for j := 0; j < r.m.Buses().Len(); j++ {
		j := j
		r.m.Buses().Bus(j).Trace = func(c uint64, req bus.Request, res bus.Result) {
			r.trace = append(r.trace, txn{c, j, req, res})
		}
	}
	return r
}

// sameRun fails the test unless got reads exactly as ref: cycle, error,
// Metrics (as JSON), agent counters, bus trace and, once both are done,
// the final memory image.
func sameRun(t *testing.T, at string, ref, got *parkRun) {
	t.Helper()
	if ref.m.Cycle() != got.m.Cycle() {
		t.Fatalf("%s: cycle %d, reference %d", at, got.m.Cycle(), ref.m.Cycle())
	}
	if fmt.Sprint(ref.m.Err()) != fmt.Sprint(got.m.Err()) {
		t.Fatalf("%s: error %v, reference %v", at, got.m.Err(), ref.m.Err())
	}
	rm, err := json.Marshal(ref.m.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	gm, err := json.Marshal(got.m.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	if string(rm) != string(gm) {
		t.Fatalf("%s: Metrics differ\n got %s\nwant %s", at, gm, rm)
	}
	for i, s := range ref.locks {
		g := got.locks[i]
		if s.Spins() != g.Spins() || s.Attempts() != g.Attempts() || s.Acquisitions() != g.Acquisitions() {
			t.Fatalf("%s: PE%d spins/attempts/acquisitions %d/%d/%d, reference %d/%d/%d", at, i,
				g.Spins(), g.Attempts(), g.Acquisitions(), s.Spins(), s.Attempts(), s.Acquisitions())
		}
	}
	for i, b := range ref.bars {
		g := got.bars[i]
		if b.Rounds() != g.Rounds() || fmt.Sprint(b.Err()) != fmt.Sprint(g.Err()) {
			t.Fatalf("%s: PE%d rounds %d err %v, reference %d %v", at, i, g.Rounds(), g.Err(), b.Rounds(), b.Err())
		}
	}
	if len(ref.trace) != len(got.trace) || !reflect.DeepEqual(ref.trace[got.matched:], got.trace[got.matched:]) {
		t.Fatalf("%s: bus traces differ (%d vs %d transactions)", at, len(got.trace), len(ref.trace))
	}
	got.matched = len(got.trace)
	if ref.m.Done() != got.m.Done() {
		t.Fatalf("%s: done %v, reference %v", at, got.m.Done(), ref.m.Done())
	}
	if ref.m.Done() {
		ri, rerr := ref.m.FinalImage()
		gi, gerr := got.m.FinalImage()
		if !reflect.DeepEqual(ri, gi) || fmt.Sprint(rerr) != fmt.Sprint(gerr) {
			t.Fatalf("%s: final images differ", at)
		}
	}
}

// TestParkingIsExact runs every spin workload on every parking-capable
// shape twice, once with its agents' Spinner hidden, and requires the two
// to read the same at ragged RunFor checkpoints, after every Step of a
// Step loop, and once both have drained. Under the race detector, which
// is ten times slower, it runs two corners of the ways x buses x RMW
// cube: 1 way, 1 bus, fused, and 2 ways, 2 buses, two-phase.
func TestParkingIsExact(t *testing.T) {
	for _, proto := range []string{"rb", "rwb", "goodman", "illinois", "writethrough"} {
		for _, kind := range []string{"ts", "tts", "barrier"} {
			for _, oracle := range []bool{false, true} {
				for _, ways := range []int{1, 2} {
					for _, buses := range []int{1, 2} {
						for _, twoPhase := range []bool{false, true} {
							if raceEnabled && (ways != buses || twoPhase != (ways == 2)) {
								continue
							}
							name := fmt.Sprintf("%s/%s/oracle=%v/ways=%d/buses=%d/twophase=%v", proto, kind, oracle, ways, buses, twoPhase)
							cfg := Config{
								Protocol: protoOrDie(t, proto), CacheLines: 32, CacheWays: ways, Buses: buses,
								CheckConsistency: oracle, TwoPhaseRMW: twoPhase,
							}
							t.Run(name, func(t *testing.T) {
								t.Parallel()
								testParkingIsExact(t, cfg, kind)
							})
						}
					}
				}
			}
		}
	}
}

func testParkingIsExact(t *testing.T, cfg Config, kind string) {
	ref, got := newParkRun(t, cfg, kind, true), newParkRun(t, cfg, kind, false)
	for _, n := range []uint64{1, 7, 777, 2, 31, 1500, 3} {
		if err := ref.m.RunFor(n); err != nil {
			t.Fatal(err)
		}
		if err := got.m.RunFor(n); err != nil {
			t.Fatal(err)
		}
		sameRun(t, fmt.Sprintf("RunFor(%d)", n), ref, got)
	}
	for step := 0; step < 300; step++ {
		if err := ref.m.Step(); err != nil {
			t.Fatal(err)
		}
		if err := got.m.Step(); err != nil {
			t.Fatal(err)
		}
		sameRun(t, fmt.Sprintf("step %d", step), ref, got)
	}
	if _, err := ref.m.Run(1 << 22); err != nil {
		t.Fatal(err)
	}
	if _, err := got.m.Run(1 << 22); err != nil {
		t.Fatal(err)
	}
	if !ref.m.Done() {
		t.Fatal("reference did not drain")
	}
	sameRun(t, "drained", ref, got)
	if kind != "ts" && got.skipped() == 0 {
		t.Fatal("no spin was skipped: the run does not exercise parking")
	}
}

// muteRelease mutes the first bus write or invalidate of addr from cycle
// from on: a lock release (RWB's second write invalidates) whose update
// or invalidation then reaches no cache.
type muteRelease struct {
	addr bus.Addr
	from uint64
	done bool
}

func (*muteRelease) WedgeArbitration(uint64) bool { return false }

func (f *muteRelease) OnGrant(c uint64, r bus.Request) bus.Verdict {
	if !f.done && c >= f.from && (r.Op == bus.OpWrite || r.Op == bus.OpInv) && r.Addr == f.addr {
		f.done = true
		return bus.VerdictMute
	}
	return bus.VerdictPass
}

// sameFirstError steps ref and got in lockstep until both fail, and
// requires the same error: type, cycle and PE included.
func sameFirstError(t *testing.T, ref, got *parkRun) {
	t.Helper()
	for step := 0; step < 100_000; step++ {
		rerr, gerr := ref.m.Step(), got.m.Step()
		if rerr == nil && gerr == nil {
			continue
		}
		var rc, gc *ConsistencyError
		if !errors.As(rerr, &rc) || !errors.As(gerr, &gc) || *rc != *gc {
			t.Fatalf("first error %v, reference %v", gerr, rerr)
		}
		sameRun(t, "first error", ref, got)
		return
	}
	t.Fatal("the fault was never detected")
}

// TestParkedFaultsDetectedAlike injects the two faults a parked PE must
// not hide, with the oracle on, and requires the first error of the
// reference: a muted release write, which leaves the spinners' copies
// stale with their lines unchanged (only the oracle's wake reaches them),
// and a data flip in a parked line.
func TestParkedFaultsDetectedAlike(t *testing.T) {
	for _, proto := range []string{"rb", "rwb"} {
		cfg := Config{Protocol: protoOrDie(t, proto), CacheLines: 32, CheckConsistency: true}
		t.Run(proto+"/mute-release", func(t *testing.T) {
			ref, got := newParkRun(t, cfg, "tts", true), newParkRun(t, cfg, "tts", false)
			ref.m.Buses().SetInjector(&muteRelease{addr: 100, from: 60})
			got.m.Buses().SetInjector(&muteRelease{addr: 100, from: 60})
			sameFirstError(t, ref, got)
		})
		t.Run(proto+"/stale-parked-line", func(t *testing.T) {
			ref, got := newParkRun(t, cfg, "tts", true), newParkRun(t, cfg, "tts", false)
			for step := 0; ; step++ {
				if step == 100_000 {
					t.Fatal("no PE ever parked")
				}
				if err := ref.m.Step(); err != nil {
					t.Fatal(err)
				}
				if err := got.m.Step(); err != nil {
					t.Fatal(err)
				}
				if got.m.parked[0] != 0 && step > 100 {
					break
				}
			}
			sameRun(t, "parked", ref, got)
			pe := 0
			for got.m.parked[0]&(1<<pe) == 0 {
				pe++
			}
			if !ref.m.Cache(pe).InjectStale(100, 2) || !got.m.Cache(pe).InjectStale(100, 2) {
				t.Fatal("parked line not found")
			}
			sameFirstError(t, ref, got)
		})
	}
}

// TestWakeOrdersCPUPhaseWrites covers a write that binds in the CPU phase
// to a line other caches hold parked, which only a fault makes possible:
// PE1's cache is restored into Local (exclusive) on the lock PE0 and PE2
// spin on, so its release hits locally. PE0, visited before PE1, read the
// old value in that phase; PE2, visited after it, must read in the same
// phase and be the first to fail.
func TestWakeOrdersCPUPhaseWrites(t *testing.T) {
	build := func(hide bool) *parkRun {
		agents := make([]workload.Agent, 3)
		r := &parkRun{}
		for _, i := range []int{0, 2} {
			s := workload.MustSpinlock(workload.SpinlockConfig{Lock: 100, Strategy: workload.StrategyTTS, Seed: uint64(i)})
			r.locks = append(r.locks, s)
			agents[i] = s
		}
		agents[1] = workload.NewTrace(workload.Compute(60), workload.Write(100, 0, coherence.ClassShared))
		if hide {
			for i, a := range agents {
				agents[i] = hidden{a}
			}
		} else {
			agents, r.counted = countAgents(agents, true)
		}
		r.m = MustNew(Config{Protocol: protoOrDie(t, "rb"), CacheLines: 32, CheckConsistency: true}, agents)
		r.m.Memory().Poke(100, 1) // held by nobody, so the spinners wait
		return r
	}
	ref, got := build(true), build(false)
	for range 30 {
		if err := ref.m.Step(); err != nil {
			t.Fatal(err)
		}
		if err := got.m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got.m.parked[0] != 1|4 {
		t.Fatalf("parked set %b, want PE0 and PE2", got.m.parked[0])
	}
	local := cache.Entry{Addr: 100, State: coherence.Local, Dirty: true, Data: 1}
	ref.m.Cache(1).Restore(local)
	got.m.Cache(1).Restore(local)
	sameFirstError(t, ref, got)
	var ce *ConsistencyError
	if errors.As(got.m.Err(), &ce) && ce.PE != 2 {
		t.Fatalf("first error on PE%d, want PE2", ce.PE)
	}
}
