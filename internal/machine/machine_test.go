package machine

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bus"
	"repro/internal/coherence"
	"repro/internal/memory"
	"repro/internal/workload"
)

func protoOrDie(t *testing.T, name string) coherence.Protocol {
	t.Helper()
	p, err := coherence.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Error("no agents accepted")
	}
	for _, bad := range []Config{{CacheLines: 3}, {Buses: 3}, {Buses: -2}, {MemLatency: -1}} {
		if _, err := New(bad, []workload.Agent{workload.Idle()}); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustNew did not panic")
			}
		}()
		MustNew(Config{}, nil)
	}()
}

func TestSinglePERunsToHalt(t *testing.T) {
	agent := workload.NewTrace(
		workload.Write(1, 11, coherence.ClassShared),
		workload.Read(1, coherence.ClassShared),
		workload.Write(2, 22, coherence.ClassShared),
	)
	m := MustNew(Config{CheckConsistency: true}, []workload.Agent{agent})
	cycles, err := m.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Done() {
		t.Fatal("machine not done")
	}
	if cycles == 0 || cycles >= 1000 {
		t.Fatalf("cycles = %d", cycles)
	}
	st := m.Proc(0).Stats()
	if st.Reads != 1 || st.Writes != 2 || st.Retired != 3 {
		t.Fatalf("proc stats = %+v", st)
	}
	if err := m.VerifyFinalMemory(); err != nil {
		t.Fatal(err)
	}
}

func TestComputeOpsConsumeCycles(t *testing.T) {
	agent := workload.NewTrace(workload.Compute(10), workload.Write(1, 1, coherence.ClassShared))
	m := MustNew(Config{}, []workload.Agent{agent})
	cycles, err := m.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if cycles < 11 {
		t.Fatalf("cycles = %d, want >= 11 (10 compute + memory op)", cycles)
	}
	if m.Proc(0).Stats().ComputeCycles != 10 {
		t.Fatalf("compute cycles = %d", m.Proc(0).Stats().ComputeCycles)
	}
}

// TestAllProtocolsPassOracle runs randomized multiprogrammed workloads on
// every protocol with the consistency oracle enabled.
func TestAllProtocolsPassOracle(t *testing.T) {
	for _, k := range coherence.Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			agents := []workload.Agent{
				workload.NewRandom(0, 24, 400, 0.4, 0.1, 1),
				workload.NewRandom(0, 24, 400, 0.4, 0.1, 2),
				workload.NewRandom(0, 24, 400, 0.3, 0.2, 3),
				workload.NewRandom(0, 24, 400, 0.5, 0.0, 4),
			}
			m := MustNew(Config{
				Protocol:         coherence.New(k),
				CacheLines:       16, // small: force evictions and conflicts
				CheckConsistency: true,
			}, agents)
			if _, err := m.Run(200000); err != nil {
				t.Fatal(err)
			}
			if !m.Done() {
				t.Fatal("did not finish")
			}
			if err := m.VerifyFinalMemory(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOracleWithMultipleBuses repeats the randomized check on 2 and 4
// interleaved buses (Figure 7-1 configuration).
func TestOracleWithMultipleBuses(t *testing.T) {
	for _, buses := range []int{2, 4} {
		for _, proto := range []string{"rb", "rwb"} {
			agents := []workload.Agent{
				workload.NewRandom(0, 32, 300, 0.4, 0.1, 10),
				workload.NewRandom(0, 32, 300, 0.4, 0.1, 11),
				workload.NewRandom(0, 32, 300, 0.4, 0.1, 12),
			}
			m := MustNew(Config{
				Protocol:         protoOrDie(t, proto),
				CacheLines:       16,
				Buses:            buses,
				CheckConsistency: true,
			}, agents)
			if _, err := m.Run(200000); err != nil {
				t.Fatalf("%s/%d buses: %v", proto, buses, err)
			}
			if err := m.VerifyFinalMemory(); err != nil {
				t.Fatalf("%s/%d buses: %v", proto, buses, err)
			}
		}
	}
}

// brokenRB deliberately omits the invalidate-on-bus-write rule so that the
// oracle's ability to catch incoherence is itself tested.
type brokenRB struct{ *coherence.Table }

func (b brokenRB) OnSnoop(s coherence.State, aux uint8, dirty bool, ev coherence.SnoopEvent) coherence.SnoopOutcome {
	if s == coherence.Readable && ev == coherence.SnBusWrite {
		return coherence.SnoopOutcome{Next: coherence.Readable} // BUG: keeps stale copy
	}
	return b.Table.OnSnoop(s, aux, dirty, ev)
}

func TestOracleCatchesBrokenProtocol(t *testing.T) {
	// PE0 reads X, PE1 overwrites X, PE0 re-reads X and must see the new
	// value; brokenRB leaves PE0's stale copy Readable.
	pe0 := workload.NewTrace(
		workload.Read(5, coherence.ClassShared),
		workload.Compute(20), // let PE1's write land
		workload.Read(5, coherence.ClassShared),
	)
	pe1 := workload.NewTrace(
		workload.Compute(5),
		workload.Write(5, 77, coherence.ClassShared),
	)
	m := MustNew(Config{Protocol: brokenRB{coherence.New(coherence.KindRB)}, CheckConsistency: true},
		[]workload.Agent{pe0, pe1})
	_, err := m.Run(1000)
	if err == nil {
		t.Fatal("oracle did not catch the stale read")
	}
	ce, ok := err.(*ConsistencyError)
	if !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
	if ce.PE != 0 || ce.Op.Addr != 5 || ce.Expected != 77 {
		t.Fatalf("violation = %+v", ce)
	}
	if !strings.Contains(ce.Error(), "consistency violation") {
		t.Fatalf("message = %q", ce.Error())
	}
	// The machine remembers the failure.
	if m.Step() == nil || m.Err() == nil {
		t.Fatal("machine forgot the violation")
	}
}

// TestSpinlockMutualExclusion: contended Test-and-Set locks must serialize
// acquisitions; with each PE performing k acquisitions, the total is n*k
// and the guarded counter pattern stays consistent (oracle-checked).
func TestSpinlockMutualExclusion(t *testing.T) {
	for _, proto := range []string{"rb", "rwb", "goodman", "writethrough"} {
		for _, strat := range []workload.Strategy{workload.StrategyTS, workload.StrategyTTS} {
			const n, iters = 4, 25
			var agents []workload.Agent
			var locks []*workload.Spinlock
			for i := 0; i < n; i++ {
				s := workload.MustSpinlock(workload.SpinlockConfig{
					Lock: 100, Strategy: strat, Iterations: iters,
					CriticalReads: 2, CriticalWrites: 2,
					GuardedBase: 200, GuardedWords: 4,
					Seed: uint64(i),
				})
				locks = append(locks, s)
				agents = append(agents, s)
			}
			m := MustNew(Config{Protocol: protoOrDie(t, proto), CheckConsistency: true}, agents)
			if _, err := m.Run(4_000_000); err != nil {
				t.Fatalf("%s/%v: %v", proto, strat, err)
			}
			if !m.Done() {
				t.Fatalf("%s/%v: starvation — machine not done", proto, strat)
			}
			total := 0
			for _, s := range locks {
				total += s.Acquisitions()
			}
			if total != n*iters {
				t.Fatalf("%s/%v: %d acquisitions, want %d", proto, strat, total, n*iters)
			}
		}
	}
}

// TestTTSGeneratesLessBusTrafficThanTS is the quantitative Section 6
// claim: while a lock is held, TTS spins in the caches, TS spins on the
// bus.
func TestTTSGeneratesLessBusTrafficThanTS(t *testing.T) {
	run := func(strat workload.Strategy) uint64 {
		const n = 8
		var agents []workload.Agent
		for i := 0; i < n; i++ {
			agents = append(agents, workload.MustSpinlock(workload.SpinlockConfig{
				Lock: 100, Strategy: strat, Iterations: 10,
				CriticalReads: 4, CriticalWrites: 4,
				GuardedBase: 200, GuardedWords: 8,
				Seed: uint64(i),
			}))
		}
		m := MustNew(Config{Protocol: coherence.New(coherence.KindRB), CheckConsistency: true}, agents)
		if _, err := m.Run(4_000_000); err != nil {
			t.Fatal(err)
		}
		if !m.Done() {
			t.Fatal("not done")
		}
		return m.Metrics().Bus.Transactions()
	}
	ts := run(workload.StrategyTS)
	tts := run(workload.StrategyTTS)
	if tts*2 > ts {
		t.Fatalf("TTS traffic %d not substantially below TS traffic %d", tts, ts)
	}
}

// TestProducerConsumerDelivery: every published item is consumed with the
// right value under each coherent scheme.
func TestProducerConsumerDelivery(t *testing.T) {
	for _, proto := range []string{"rb", "rwb", "goodman", "writethrough", "nocache"} {
		const items = 20
		cons := workload.NewConsumer(10, 11, items)
		prod := workload.NewProducer(10, 11, items, 30)
		m := MustNew(Config{Protocol: protoOrDie(t, proto), CheckConsistency: true},
			[]workload.Agent{prod, cons})
		if _, err := m.Run(1_000_000); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if cons.Received() != items {
			t.Fatalf("%s: consumed %d of %d", proto, cons.Received(), items)
		}
		for i, v := range cons.Values {
			if v < 1000 || v >= 1000+items {
				t.Fatalf("%s: item %d value %d out of range", proto, i, v)
			}
		}
	}
}

// TestMultiBusSplitsTraffic: with 2 banks, a uniform workload lands about
// half its transactions on each bus (Figure 7-1's premise).
func TestMultiBusSplitsTraffic(t *testing.T) {
	agents := []workload.Agent{
		workload.NewRandom(0, 64, 2000, 0.5, 0, 1),
		workload.NewRandom(0, 64, 2000, 0.5, 0, 2),
	}
	m := MustNew(Config{Protocol: coherence.New(coherence.KindRB), Buses: 2, CacheLines: 16, CheckConsistency: true}, agents)
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	per := m.Metrics().PerBusTransactions
	total := per[0] + per[1]
	if total == 0 {
		t.Fatal("no traffic")
	}
	ratio := float64(per[0]) / float64(total)
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("bank split = %v (%.2f), want ~even", per, ratio)
	}
}

func TestMetricsAggregation(t *testing.T) {
	agent := workload.NewTrace(
		workload.Write(1, 1, coherence.ClassShared),
		workload.Read(1, coherence.ClassShared),
	)
	m := MustNew(Config{}, []workload.Agent{agent})
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	mt := m.Metrics()
	if mt.TotalRefs() != 2 {
		t.Fatalf("TotalRefs = %d", mt.TotalRefs())
	}
	if mt.BusPerRef() <= 0 {
		t.Fatalf("BusPerRef = %g", mt.BusPerRef())
	}
	if len(mt.Caches) != 1 || len(mt.Procs) != 1 || len(mt.PerBusTransactions) != 1 {
		t.Fatalf("metrics shape: %+v", mt)
	}
	var empty Metrics
	if empty.BusPerRef() != 0 {
		t.Fatal("empty BusPerRef != 0")
	}
}

func TestVerifyFinalMemoryRejectsRunningMachine(t *testing.T) {
	m := MustNew(Config{}, []workload.Agent{workload.NewHotspot(1, 0)})
	m.Step()
	if err := m.VerifyFinalMemory(); err == nil {
		t.Fatal("VerifyFinalMemory before Done did not error")
	}
}

func TestRunForExactCycles(t *testing.T) {
	m := MustNew(Config{}, []workload.Agent{workload.NewHotspot(1, 0)})
	if err := m.RunFor(50); err != nil {
		t.Fatal(err)
	}
	if m.Cycle() != 50 {
		t.Fatalf("Cycle = %d, want 50", m.Cycle())
	}
}

// TestCrossProtocolFinalValuesAgree: the same deterministic workload must
// leave identical logical memory contents under every coherent protocol.
func TestCrossProtocolFinalValuesAgree(t *testing.T) {
	finals := map[string]map[bus.Addr]bus.Word{}
	for _, proto := range []string{"rb", "rwb", "goodman", "writethrough", "nocache"} {
		agents := []workload.Agent{
			workload.NewArrayInit(0, 40),
			workload.NewTrace(
				workload.Compute(200),
				workload.Write(100, 1, coherence.ClassShared),
				workload.Write(100, 2, coherence.ClassShared),
				workload.Write(100, 3, coherence.ClassShared),
			),
		}
		m := MustNew(Config{Protocol: protoOrDie(t, proto), CacheLines: 16, CheckConsistency: true}, agents)
		if _, err := m.Run(1_000_000); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if err := m.VerifyFinalMemory(); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		// Logical view: memory plus dirty lines.
		final := m.Memory().Snapshot()
		for pe := 0; pe < m.Processors(); pe++ {
			for _, e := range m.Cache(pe).Entries() {
				if e.Dirty {
					final[e.Addr] = e.Data
				}
			}
		}
		finals[proto] = final
	}
	ref := finals["rb"]
	for proto, got := range finals {
		for a, v := range ref {
			if got[a] != v {
				t.Fatalf("%s: addr %d = %d, rb says %d", proto, a, got[a], v)
			}
		}
	}
}

func TestMissLatencyHistogram(t *testing.T) {
	// A pure-miss workload (nocache) records one latency sample per ref.
	agents := []workload.Agent{workload.NewRandom(0, 32, 100, 0.5, 0, 1)}
	m := MustNew(Config{Protocol: protoOrDie(t, "nocache"), CheckConsistency: true}, agents)
	if _, err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	h := m.Metrics().MissLatency
	if h.Count() != 100 {
		t.Fatalf("latency samples = %d, want 100", h.Count())
	}
	// A single uncontended PE completes each miss in a couple of cycles.
	if h.Mean() < 1 || h.Mean() > 4 {
		t.Fatalf("mean miss latency = %v", h.Mean())
	}
	// Contention raises the tail: 8 PEs on one bus.
	var crowd []workload.Agent
	for i := 0; i < 8; i++ {
		crowd = append(crowd, workload.NewRandom(0, 32, 100, 0.5, 0, uint64(i)))
	}
	mc := MustNew(Config{Protocol: protoOrDie(t, "nocache"), CheckConsistency: true}, crowd)
	if _, err := mc.Run(1000000); err != nil {
		t.Fatal(err)
	}
	hc := mc.Metrics().MissLatency
	if hc.Mean() <= h.Mean() {
		t.Fatalf("contended mean %v not above uncontended %v", hc.Mean(), h.Mean())
	}
	if hc.Quantile(0.95) < uint64(hc.Mean()) {
		t.Fatal("p95 below mean")
	}
}

func TestWatchdog(t *testing.T) {
	// A generous watchdog never fires on a healthy contended machine.
	agents := []workload.Agent{
		workload.NewRandom(0, 16, 200, 0.5, 0.1, 1),
		workload.NewRandom(0, 16, 200, 0.5, 0.1, 2),
	}
	m := MustNew(Config{StallCycles: 100000, CheckConsistency: true}, agents)
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatalf("healthy machine tripped the watchdog: %v", err)
	}

	// An absurdly tight threshold fires on ordinary memory latency — the
	// mechanism works end to end.
	slow := MustNew(Config{
		Protocol:    protoOrDie(t, "nocache"),
		MemLatency:  5,
		StallCycles: 2,
	}, []workload.Agent{
		workload.NewRandom(0, 8, 50, 0.5, 0, 1),
		workload.NewRandom(0, 8, 50, 0.5, 0, 2),
	})
	_, err := slow.Run(100000)
	se, ok := err.(*StallError)
	if !ok {
		t.Fatalf("err = %v, want StallError", err)
	}
	if se.Error() == "" || se.Cycle <= se.Since {
		t.Fatalf("stall error malformed: %+v", se)
	}
}

// lockWedge is a raw bus requester that takes the word lock register via
// a locked read and then goes silent — the unlock write never comes, so
// every later write to the word stalls at arbitration forever. It is the
// deliberate wedge the watchdog exists to diagnose.
type lockWedge struct {
	addr bus.Addr
	done bool
}

func (w *lockWedge) BusGrant(bank, banks int) (bus.Request, bool) {
	if w.done {
		return bus.Request{}, false
	}
	w.done = true
	return bus.Request{Op: bus.OpRead, Addr: w.addr, Lock: true}, true
}

// spinWriter writes one shared word forever.
type spinWriter struct{ addr bus.Addr }

func (s *spinWriter) Next(workload.Result) workload.Op {
	return workload.Write(s.addr, 1, coherence.ClassShared)
}

// TestWatchdogNamesWedgedTransaction wedges the bus on purpose — a rogue
// requester takes the lock register and never releases it — and checks
// the resulting StallError's Pending string names the transaction that
// could not complete, which is what makes the watchdog actionable.
func TestWatchdogNamesWedgedTransaction(t *testing.T) {
	const lockAddr = bus.Addr(7)
	agents := []workload.Agent{&spinWriter{addr: lockAddr}}
	m := MustNew(Config{StallCycles: 50}, agents)
	wedge := &lockWedge{addr: lockAddr}
	m.buses.AttachRequester(len(agents), wedge)
	m.buses.RequestSlot(lockAddr, len(agents))

	_, err := m.Run(100_000)
	se, ok := err.(*StallError)
	if !ok {
		t.Fatalf("err = %v, want StallError", err)
	}
	if !wedge.done {
		t.Fatal("wedge never granted; the run stalled for another reason")
	}
	if se.PE != 0 {
		t.Fatalf("stalled PE = %d, want 0", se.PE)
	}
	// The watchdog scans only when its lower bound comes due; it must still
	// trip on the first cycle the threshold is exceeded.
	if se.Cycle != se.Since+50+1 {
		t.Fatalf("tripped at cycle %d for an operation issued at %d, want %d", se.Cycle, se.Since, se.Since+51)
	}
	want := "write addr=7"
	if !strings.Contains(se.Pending, want) {
		t.Fatalf("Pending = %q, does not name the blocked transaction %q", se.Pending, want)
	}
	if !strings.Contains(se.Error(), want) {
		t.Fatalf("Error() = %q, does not surface the blocked transaction", se.Error())
	}
}

// TestStallErrorBusStateDump wedges the bus via the lock register and
// checks the StallError carries the wedging cycle number and a bus-state
// dump naming the stuck lock holder — the diagnostics that turn a watchdog
// trip from "it hung" into "PE1 still holds the lock on addr 7". Also
// exercises Config.StallCycles, the canonical name for the threshold.
func TestStallErrorBusStateDump(t *testing.T) {
	const lockAddr = bus.Addr(7)
	agents := []workload.Agent{&spinWriter{addr: lockAddr}}
	m := MustNew(Config{StallCycles: 50}, agents)
	wedge := &lockWedge{addr: lockAddr}
	m.buses.AttachRequester(len(agents), wedge)
	m.buses.RequestSlot(lockAddr, len(agents))

	_, err := m.Run(100_000)
	se, ok := err.(*StallError)
	if !ok {
		t.Fatalf("err = %v, want StallError (StallCycles threshold did not arm the watchdog)", err)
	}
	if se.Cycle == 0 || se.Since == 0 || se.Cycle <= se.Since {
		t.Fatalf("wedging cycle numbers malformed: Cycle=%d Since=%d", se.Cycle, se.Since)
	}
	if se.BusState == "" {
		t.Fatal("StallError.BusState is empty")
	}
	// The dump names the wedged lock: held by the rogue requester (source
	// 1) on addr 7, with the spinning PE's request line still pending.
	if want := "lock=PE1@addr7"; !strings.Contains(se.BusState, want) {
		t.Fatalf("BusState = %q, does not name the lock holder %q", se.BusState, want)
	}
	if !strings.Contains(se.BusState, "pending=") {
		t.Fatalf("BusState = %q, has no pending-request count", se.BusState)
	}
	msg := se.Error()
	for _, want := range []string{"wedged at cycle", "bus state:", "lock=PE1@addr7"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("Error() = %q, missing %q", msg, want)
		}
	}
}

// TestAuditFinalCoherenceFaultFree pins the audit's invariant on every
// protocol: fault-free, no valid cache line ever outlives the latest value
// of its address, so the final-state coherence audit must pass. This is
// what licenses the fault layer to treat an audit failure as a detection.
func TestAuditFinalCoherenceFaultFree(t *testing.T) {
	for _, k := range coherence.Kinds() {
		proto := coherence.New(k)
		t.Run(proto.Name(), func(t *testing.T) {
			agents := []workload.Agent{
				workload.NewRandom(0, 32, 400, 0.5, 0.3, 1),
				workload.NewRandom(0, 32, 400, 0.5, 0.3, 2),
				workload.NewRandom(0, 32, 400, 0.5, 0.3, 3),
			}
			m := MustNew(Config{Protocol: proto, CacheLines: 16, CheckConsistency: true, StallCycles: 200000}, agents)
			if _, err := m.Run(2_000_000); err != nil {
				t.Fatal(err)
			}
			if !m.Done() {
				t.Fatal("machine did not drain")
			}
			if err := m.VerifyFinalMemory(); err != nil {
				t.Fatal(err)
			}
			if err := m.AuditFinalCoherence(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPristineMemRMWSameCycle pins the oracle's pre-first-write record
// under the hard case it exists for: an RMW's lock write lands in memory
// within the same bus cycle that sampled the old value, so by the time
// the retirement is checked, plain memory already shows the new word.
func TestPristineMemRMWSameCycle(t *testing.T) {
	p := &pristineMem{Memory: memory.New(), init: memory.New()}
	const a = bus.Addr(5)
	p.Memory.Poke(a, 42) // initial image, as a loader would leave it

	// The RMW's locked read samples 42; its lock write follows in the
	// same cycle. The oracle must still see 42 as the pristine content.
	if got := p.ReadWord(a); got != 42 {
		t.Fatalf("locked read sampled %d, want 42", got)
	}
	p.WriteWord(a, 1)
	if got := p.Peek(a); got != 1 {
		t.Fatalf("memory shows %d after the lock write, want 1", got)
	}
	if got := p.pristine(a); got != 42 {
		t.Fatalf("pristine(%d) = %d after the lock write, want 42", a, got)
	}

	// Later writes must not disturb the first-write record.
	p.WriteWord(a, 9)
	if got := p.pristine(a); got != 42 {
		t.Fatalf("pristine(%d) = %d after a second write, want 42", a, got)
	}

	// A never-bus-written address reports its current (loader) content.
	const b = bus.Addr(6)
	p.Memory.Poke(b, 7)
	if got := p.pristine(b); got != 7 {
		t.Fatalf("pristine(%d) = %d for an unwritten word, want 7", b, got)
	}
}

// TestQuickCrossProtocolEquivalence: for random seeds, a *race-free*
// multiprogram (writers own disjoint windows; a fourth PE only reads)
// leaves identical logical memory (memory plus dirty lines) under every
// protocol, and every run passes the oracle. Racy programs are excluded
// by construction: different protocols legitimately serialize races
// differently.
func TestQuickCrossProtocolEquivalence(t *testing.T) {
	run := func(seed uint64) bool {
		var reference map[bus.Addr]bus.Word
		for _, k := range coherence.Kinds() {
			agents := []workload.Agent{
				workload.NewRandom(0, 24, 150, 0.5, 0.05, seed),
				workload.NewRandom(24, 24, 150, 0.4, 0.05, seed+100),
				workload.NewRandom(48, 24, 150, 0.3, 0.10, seed+200),
				workload.NewRandom(0, 72, 150, 0, 0, seed+300), // reader over everyone
			}
			m := MustNew(Config{
				Protocol:         coherence.New(k),
				CacheLines:       16,
				CheckConsistency: true,
				StallCycles:      100000,
			}, agents)
			if _, err := m.Run(1_000_000); err != nil {
				t.Logf("seed %d %v: %v", seed, k, err)
				return false
			}
			if !m.Done() {
				t.Logf("seed %d %v: not done", seed, k)
				return false
			}
			final := m.Memory().Snapshot()
			for pe := 0; pe < m.Processors(); pe++ {
				for _, e := range m.Cache(pe).Entries() {
					if e.Dirty {
						final[e.Addr] = e.Data
					}
				}
			}
			if reference == nil {
				reference = final
				continue
			}
			for a, v := range reference {
				if final[a] != v {
					t.Logf("seed %d %v: addr %d = %d, reference %d", seed, k, a, final[a], v)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
