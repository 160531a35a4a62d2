package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/bandwidth"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/memory"
	"repro/internal/mrc"
	"repro/internal/processor"
	"repro/internal/workload"
)

// coreShape is one of the four single-machine workloads. All sizes are
// cycle counts, so the simulated statistics taken at fixedCycles repeat
// exactly; the run then keeps stepping until its seconds are up, which
// only adds timing samples.
type coreShape struct {
	name        string
	pes, lines  int
	proto       coherence.Protocol
	spinlocks   bool   // every PE a TTS spinlock on one lock instead of the app mix
	profiled    bool   // mrc.Attach on the timed machine
	fixedCycles uint64 // simulated counts are read here
	segment     uint64 // cycles per timed segment: the unit behind p50_ms and p25_ms
}

const (
	coreWarmup      = 20_000
	corePrefix      = 200_000 // oracle-checked, fingerprinted prefix run
	residualCycles  = 250_000 // per point of the cache-size sweep
	residualMinLog2 = 3       // 8 lines
	residualMaxLog2 = 13      // 8192 lines
)

var (
	coreSaturated = coreShape{name: "core-saturated", pes: 64, lines: 2048, proto: coherence.RB{},
		fixedCycles: 1_000_000, segment: 10_000}
	corePrivate = coreShape{name: "core-private", pes: 2, lines: 2048, proto: coherence.NewRWB(2),
		fixedCycles: 5_000_000, segment: 100_000}
	coreSync = coreShape{name: "core-sync", pes: 16, lines: 64, proto: coherence.NewRWB(2), spinlocks: true,
		fixedCycles: 2_500_000, segment: 25_000}
	coreProfiled = coreShape{name: "core-profiled", pes: 2, lines: 2048, proto: coherence.NewRWB(2), profiled: true,
		fixedCycles: 5_000_000, segment: 50_000}
	coreShapes = []coreShape{coreSaturated, corePrivate, coreSync, coreProfiled}
)

func runCoreSaturated(rc *runCtx) error { return runCore(rc, coreSaturated) }
func runCorePrivate(rc *runCtx) error   { return runCore(rc, corePrivate) }
func runCoreSync(rc *runCtx) error      { return runCore(rc, coreSync) }
func runCoreProfiled(rc *runCtx) error  { return runCore(rc, coreProfiled) }

func (s coreShape) agents(seed uint64) []workload.Agent {
	agents := make([]workload.Agent, s.pes)
	for i := range agents {
		if s.spinlocks {
			agents[i] = workload.MustSpinlock(workload.SpinlockConfig{
				Lock: 100, Strategy: workload.StrategyTTS,
				CriticalReads: 3, CriticalWrites: 3, GuardedBase: 200, GuardedWords: 8,
				ThinkCycles: 20, Seed: seed<<8 + uint64(i),
			})
		} else {
			agents[i] = workload.MustApp(workload.PDEProfile(), workload.DefaultLayout(), i, seed, 0)
		}
	}
	return agents
}

func (s coreShape) build(seed uint64, lines int, oracle bool) (*machine.Machine, error) {
	return machine.New(machine.Config{Protocol: s.proto, CacheLines: lines, CheckConsistency: oracle}, s.agents(seed))
}

// fingerprint pins a run's simulated statistics: the headline counts in
// the clear, so a mismatch can be read, and a hash over every bus, cache
// and processor counter.
type fingerprint struct {
	Cycles   uint64   `json:"cycles"`
	BusByOp  []uint64 `json:"bus_by_op"`
	Retired  uint64   `json:"retired"`
	ReadHits uint64   `json:"read_hits"`
	SHA256   string   `json:"sha256"`
}

func fingerprintOf(mt machine.Metrics) (fingerprint, error) {
	dump, err := json.Marshal(struct {
		Cycles uint64
		Bus    bus.Stats
		Caches []cache.Stats
		Procs  []processor.Stats
	}{mt.Cycles, mt.Bus, mt.Caches, mt.Procs})
	if err != nil {
		return fingerprint{}, err
	}
	hash := sha256.Sum256(dump)
	fp := fingerprint{Cycles: mt.Cycles, BusByOp: mt.Bus.ByOp[:], Retired: mt.TotalRefs(), SHA256: hex.EncodeToString(hash[:])}
	for _, c := range mt.Caches {
		fp.ReadHits += c.ReadHits
	}
	return fp, nil
}

// goldenDoc is one golden/<workload>.seed<N>.json: the prefix-run
// fingerprint at full size and at -smoke size.
type goldenDoc struct {
	Full  fingerprint `json:"full"`
	Smoke fingerprint `json:"smoke"`
}

//go:embed golden/*.json
var goldenFS embed.FS

func goldenName(workload string, seed uint64) string {
	return fmt.Sprintf("golden/%s.seed%d.json", workload, seed)
}

// goldenFor returns the checked-in fingerprint, if this seed has one.
func goldenFor(workload string, seed uint64, smoke bool) (fingerprint, bool, error) {
	data, err := goldenFS.ReadFile(goldenName(workload, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return fingerprint{}, false, nil
	}
	if err != nil {
		return fingerprint{}, false, err
	}
	var doc goldenDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fingerprint{}, false, fmt.Errorf("%s: %w", goldenName(workload, seed), err)
	}
	if smoke {
		return doc.Smoke, true, nil
	}
	return doc.Full, true, nil
}

// prefixRun is the correctness half of set-up: a short run with the
// read-latest oracle on, fingerprinted.
func (s coreShape) prefixRun(seed uint64, cycles uint64) (fingerprint, error) {
	m, err := s.build(seed, s.lines, true)
	if err != nil {
		return fingerprint{}, err
	}
	if err := m.RunFor(cycles); err != nil {
		return fingerprint{}, fmt.Errorf("oracle prefix: %w", err)
	}
	return fingerprintOf(m.Metrics())
}

// updateGolden rewrites the fingerprints of seeds 1 and 2 under dir.
func updateGolden(dir string) error {
	for _, s := range coreShapes {
		for seed := uint64(1); seed <= 2; seed++ {
			var doc goldenDoc
			var err error
			if doc.Full, err = s.prefixRun(seed, corePrefix); err != nil {
				return err
			}
			if doc.Smoke, err = s.prefixRun(seed, corePrefix/smokeDivisor); err != nil {
				return err
			}
			data, err := json.MarshalIndent(doc, "", "  ")
			if err != nil {
				return err
			}
			path := filepath.Join(dir, filepath.Base(goldenName(s.name, seed)))
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintln(os.Stderr, "wrote", path)
		}
	}
	return nil
}

// curveResidual compares the profiler's per-PE miss-ratio curve with
// what caches of each size actually measure: the mean absolute
// difference over the size grid.
func (s coreShape) curveResidual(seed, cycles uint64) (float64, error) {
	m, err := s.build(seed, s.lines, false)
	if err != nil {
		return 0, err
	}
	set := mrc.Attach(m)
	if err := m.RunFor(cycles); err != nil {
		return 0, err
	}
	total, points := 0.0, 0
	for log2 := residualMinLog2; log2 <= residualMaxLog2; log2++ {
		lines := 1 << log2
		sized, err := s.build(seed, lines, false)
		if err != nil {
			return 0, err
		}
		if err := sized.RunFor(cycles); err != nil {
			return 0, err
		}
		predicted, observed := 0.0, 0.0
		for pe, c := range sized.Metrics().Caches {
			predicted += set.PerPE[pe].MissRatio(lines)
			observed += c.MissRatio()
		}
		diff := (predicted - observed) / float64(s.pes)
		if diff < 0 {
			diff = -diff
		}
		total += diff
		points++
	}
	return total / float64(points), nil
}

func runCore(rc *runCtx, s coreShape) error {
	prefix := uint64(rc.n(corePrefix, 1))
	fixed := uint64(rc.n(int(s.fixedCycles), int(s.segment/smokeDivisor)))
	segment := uint64(rc.n(int(s.segment), 1))
	fixed -= fixed % segment

	var (
		m        *machine.Machine
		profile  *mrc.Set
		fp       fingerprint
		residual float64
	)
	err := rc.setup(func() error {
		var err error
		if fp, err = s.prefixRun(rc.seed, prefix); err != nil {
			return err
		}
		id := rc.tr.begin("machine.New", s.name, 0)
		m, err = s.build(rc.seed, s.lines, false)
		rc.tr.end(id)
		if err != nil {
			return err
		}
		if s.profiled {
			profile = mrc.Attach(m)
			if residual, err = s.curveResidual(rc.seed, uint64(rc.n(residualCycles, 1000))); err != nil {
				return err
			}
		}
		return m.RunFor(uint64(rc.n(coreWarmup, 100)))
	})
	if err != nil {
		return err
	}
	rc.check("oracle prefix", nil) // a violation would have failed set-up
	want, ok, err := goldenFor(s.name, rc.seed, rc.smoke)
	switch {
	case err != nil:
		return err
	case !ok:
		rc.note("no golden fingerprint for seed %d: checked by the oracle prefix only", rc.seed)
	case want.SHA256 != fp.SHA256:
		rc.check("golden fingerprint", fmt.Errorf("got %+v, want %+v", fp, want))
	default:
		rc.check("golden fingerprint", nil)
	}

	// Timed section. Segments alternate traced and untraced in a traced
	// run; the gap between the two groups is the tracing overhead.
	var (
		segMS      [2][]float64 // [0] untraced, [1] traced
		atFixed    machine.Metrics
		memAtFixed memory.Stats
		profRefs   float64 // the profiler's machine-wide counts at the fixed cycle count
		profFoot   float64
		allocs     float64
		before     runtime.MemStats
		after      runtime.MemStats
		cycles     uint64
		fixedWall  float64
	)
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := now()
	deadline := rc.deadline(start)
	for i := 0; cycles < fixed || now().Before(deadline); i++ {
		tracedSeg := rc.traced() && i%2 == 1
		id := 0
		if tracedSeg {
			id = rc.tr.begin("machine.RunFor", s.name, 0)
		}
		t := now()
		err := m.RunFor(segment)
		d := since(t)
		rc.tr.end(id)
		if err != nil {
			return fmt.Errorf("timed run: %w", err)
		}
		cycles += segment
		group := 0
		if tracedSeg {
			group = 1
		}
		segMS[group] = append(segMS[group], ms(d))
		if cycles == fixed {
			runtime.ReadMemStats(&after)
			allocs = float64(after.Mallocs-before.Mallocs) / float64(fixed)
			fixedWall = since(start).Seconds()
			id := rc.tr.begin("machine.Metrics", s.name, 0)
			atFixed = m.Metrics()
			rc.tr.end(id)
			memAtFixed = m.Memory().Stats()
			if profile != nil {
				profRefs, profFoot = float64(profile.Global.Refs()), float64(profile.Global.Footprint())
			}
		}
	}
	wall := since(start).Seconds()
	all := append(append([]float64(nil), segMS[0]...), segMS[1]...)
	rc.attempt(len(all))
	rc.samples("segments", len(all))
	rc.samples("cycles", int(cycles))

	if !rc.traced() {
		rc.set("ops_per_s", float64(cycles)/wall)
		rc.setUnitTimes(all)
		return nil
	}
	rc.set("harness.trace_overhead_pct", 100*ratio(median(segMS[1])-median(segMS[0]), median(segMS[0])))
	if s.profiled {
		rc.set("mrc.refs", profRefs)
		rc.set("mrc.footprint", profFoot)
		rc.set("mrc.residual", residual)
	}
	s.layerMetrics(rc, atFixed, memAtFixed, fixedWall, allocs, profRefs)
	return nil
}

// layerMetrics fills the per-layer metrics of a core workload: simulated
// counts at the fixed cycle count, then host costs from isolated drivers
// fed the same agents.
func (s coreShape) layerMetrics(rc *runCtx, mt machine.Metrics, mem memory.Stats, wallS, allocs, profRefs float64) {
	var cs cache.Stats
	var ps processor.Stats
	missRatio := 0.0
	for i, c := range mt.Caches {
		missRatio += c.MissRatio()
		cs.ReadHits += c.ReadHits
		cs.WriteHits += c.WriteHits
		cs.Snarfs += c.Snarfs
		cs.InvalidatedBy += c.InvalidatedBy
		cs.FlushSupplied += c.FlushSupplied
		cs.Writebacks += c.Writebacks
		cs.Retries += c.Retries
		cs.LocalRMWs += c.LocalRMWs
		ps.StallCycles += mt.Procs[i].StallCycles
	}
	cycles, pes := float64(mt.Cycles-uint64(rc.n(coreWarmup, 100))), float64(s.pes)
	// Counts include the warm-up cycles; rates use the timed cycles only.
	refs := float64(mt.TotalRefs())
	peCycles := float64(mt.Cycles) * pes
	txns := float64(mt.Bus.Transactions())

	rc.set("processor.retired", refs)
	rc.set("processor.stall_cycles", float64(ps.StallCycles))
	rc.set("processor.stall_share", ratio(float64(ps.StallCycles), peCycles))
	rc.set("cache.miss_ratio", missRatio/pes)
	rc.set("cache.read_hits", float64(cs.ReadHits))
	rc.set("cache.write_hits", float64(cs.WriteHits))
	rc.set("cache.snarfs", float64(cs.Snarfs))
	rc.set("cache.invalidated_by", float64(cs.InvalidatedBy))
	rc.set("cache.flush_supplied", float64(cs.FlushSupplied))
	rc.set("cache.writebacks", float64(cs.Writebacks))
	rc.set("cache.retries", float64(cs.Retries))
	rc.set("cache.local_rmws", float64(cs.LocalRMWs))
	rc.set("bus.transactions", txns)
	rc.set("bus.reads", float64(mt.Bus.Reads()))
	rc.set("bus.writes", float64(mt.Bus.Writes()))
	rc.set("bus.invalidates", float64(mt.Bus.Invalidates()))
	rc.set("bus.rmws", float64(mt.Bus.RMWs()))
	rc.set("bus.per_ref", mt.BusPerRef())
	rc.set("bus.utilization", mt.Bus.Utilization())
	rc.set("bus.wait_cycles_per_txn", ratio(float64(mt.Bus.WaitCycles), txns))
	rc.set("bus.killed_reads", float64(mt.Bus.KilledReads))
	rc.set("bus.withdrawn", float64(mt.Bus.Withdrawn))
	rc.set("bus.rmw_failure_share", ratio(float64(mt.Bus.RMWFailure), float64(mt.Bus.RMWs())))
	rc.set("memory.reads", float64(mem.Reads))
	rc.set("memory.writes", float64(mem.Writes))
	rc.set("machine.miss_latency_p50_cycles", float64(mt.MissLatency.Quantile(0.50)))
	rc.set("machine.miss_latency_p99_cycles", float64(mt.MissLatency.Quantile(0.99)))

	// Section 7: demand m*x*(1/h) over a bus that carries one
	// transaction per cycle, with x the references one unstalled PE
	// issues per cycle and 1/h the bus transactions per reference.
	issueCycles := peCycles - float64(ps.StallCycles)
	model := bandwidth.Model{
		Processors: s.pes,
		AccessRate: bandwidth.MACS(ratio(refs, issueCycles)),
		MissRatio:  mt.BusPerRef(),
	}.Utilization(1)
	rc.set("bandwidth.util_model", model)
	rc.set("bandwidth.util_gap", mt.Bus.Utilization()-model)

	nsPerCycle := wallS * 1e9 / cycles
	rc.set("machine.ns_per_cycle", nsPerCycle)
	rc.set("machine.ns_per_pe_cycle", nsPerCycle/pes)
	rc.set("machine.ns_per_ref", ratio(wallS*1e9, refs*cycles/float64(mt.Cycles)))
	rc.set("machine.allocs_per_cycle", allocs)

	iso := s.isolated(rc)
	if s.profiled {
		rc.set("mrc.touch_ns", iso.touchNS)
		rc.set("mrc.overhead_pct", iso.profilerOverheadPct)
	}
	// What the isolated drivers times their call counts explain of a
	// cycle; the rest is per-Step overhead and the request-line scan.
	perCycle := func(calls float64) float64 { return calls / float64(mt.Cycles) }
	explained := iso.tickNS +
		perCycle(issueCycles)*iso.cpuPhaseNS +
		perCycle(txns)*iso.snoopNS +
		perCycle(float64(mem.Reads+mem.Writes))*iso.memNS/2 +
		perCycle(2*profRefs)*iso.touchNS // each reference touches its PE's profiler and the machine-wide one
	rc.set("machine.unattributed_share", 1-ratio(explained, nsPerCycle))
}

// isolatedCosts are host costs of single layers, each driven alone.
type isolatedCosts struct {
	tickNS, cpuPhaseNS, snoopNS, memNS, touchNS float64
	profilerOverheadPct                         float64
}

// perOp times n calls of f and returns nanoseconds per call.
func perOp(n int, f func(i int)) float64 {
	start := now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(since(start).Nanoseconds()) / float64(n)
}

// stubDevice is a bus requester and snooper that always wants one read
// and reacts to nothing.
type stubDevice struct{ addr bus.Addr }

func (d *stubDevice) BusGrant(int, int) (bus.Request, bool) {
	return bus.Request{Op: bus.OpRead, Addr: d.addr}, true
}
func (*stubDevice) SnoopRead(bus.Addr, int) (bool, bus.Word)    { return false, 0 }
func (*stubDevice) SnoopRMWRead(bus.Addr, int) (bool, bus.Word) { return false, 0 }
func (*stubDevice) ObserveWrite(bus.Op, bus.Addr, bus.Word, int) {
}
func (*stubDevice) ObserveReadData(bus.Addr, bus.Word, int) {}

// isolated drives each layer alone, records the per-layer host costs,
// and returns the ones machine.unattributed_share needs.
func (s coreShape) isolated(rc *runCtx) isolatedCosts {
	var out isolatedCosts
	calls := rc.n(1_000_000, 2000)
	id := rc.tr.begin("isolated-drivers", s.name, 0)
	defer rc.tr.end(id)

	// workload: Next alone, round-robin over the workload's own agents.
	agents := s.agents(rc.seed)
	rc.set("workload.next_ns", perOp(calls, func(i int) {
		agents[i%len(agents)].Next(workload.Result{})
	}))

	// processor and cache: one PE whose eight-word loop has been pulled
	// into its cache, so every CPUPhase and Access is a hit.
	loop := 0
	reader := workload.Func(func(workload.Result) workload.Op {
		loop++
		return workload.Read(bus.Addr(1000+loop%8), coherence.ClassLocal)
	})
	hot, err := machine.New(machine.Config{Protocol: s.proto, CacheLines: s.lines}, []workload.Agent{reader})
	if err == nil {
		err = hot.RunFor(200)
	}
	if err != nil {
		rc.fail("isolated hit driver: %v", err)
		return out
	}
	out.cpuPhaseNS = perOp(calls, func(int) { hot.Proc(0).CPUPhase() })
	rc.set("processor.cpuphase_ns", out.cpuPhaseNS)
	c := hot.Cache(0)
	rc.set("cache.access_hit_ns", perOp(calls, func(i int) {
		c.Access(coherence.EvRead, bus.Addr(1000+i%8), 0, coherence.ClassLocal)
	}))
	out.snoopNS = perOp(calls, func(i int) {
		a := bus.Addr(1000 + i%8)
		c.ObserveWrite(bus.OpWrite, a, bus.Word(i), 1)
		c.SnoopRead(a, 1)
	})
	rc.set("cache.snoop_ns", out.snoopNS)

	// coherence: the full state x event cross product through the
	// Protocol interface.
	states := s.proto.States()
	steps := 0
	stepStart := now()
	for steps < calls {
		for _, st := range states {
			for _, ev := range []coherence.ProcEvent{coherence.EvRead, coherence.EvWrite} {
				s.proto.OnProc(st, 1, ev)
				steps++
			}
			for _, ev := range []coherence.SnoopEvent{coherence.SnBusRead, coherence.SnBusWrite, coherence.SnBusInv, coherence.SnReadData} {
				s.proto.OnSnoop(st, 1, false, ev)
				s.proto.OnSnoop(st, 1, true, ev)
				steps += 2
			}
		}
	}
	rc.set("coherence.step_ns", float64(since(stepStart).Nanoseconds())/float64(steps))

	// bus: Tick with as many always-requesting stub devices as the
	// workload has PEs, broadcast snooping.
	set := bus.NewSet(memory.New(), 1)
	for i := 0; i < s.pes; i++ {
		d := &stubDevice{addr: bus.Addr(5000 + i)}
		set.Attach(i, d)
		set.AttachRequester(i, d)
		set.RequestSlot(d.addr, i)
	}
	out.tickNS = perOp(calls/4, func(int) {
		for _, g := range set.Tick() {
			set.RequestSlot(g.Req.Addr, g.Req.Source)
		}
	})
	rc.set("bus.tick_ns", out.tickNS)

	// memory: one write and one read per call over a 4096-word window.
	mem := memory.New()
	out.memNS = perOp(calls, func(i int) {
		a := bus.Addr(i & 4095)
		mem.WriteWord(a, bus.Word(i))
		mem.ReadWord(a)
	})
	rc.set("memory.readwrite_ns", out.memNS)

	// machine: construction against reset of the same shape, and the cost
	// of a Metrics snapshot.
	var newMS, resetMS, metricsUS []float64
	for i := 0; i < 5; i++ {
		start := now()
		fresh, err := s.build(rc.seed, s.lines, false)
		newMS = append(newMS, ms(since(start)))
		if err != nil || fresh.RunFor(2000) != nil {
			rc.fail("isolated machine driver: build or run failed")
			return out
		}
		start = now()
		if s.spinlocks {
			err = fresh.ResetWith(s.agents(rc.seed)) // spinlocks are rebuilt, not reseeded
		} else {
			err = fresh.Reset(rc.seed)
		}
		resetMS = append(resetMS, ms(since(start)))
		if err != nil {
			rc.fail("isolated machine driver: reset: %v", err)
			return out
		}
		start = now()
		fresh.Metrics()
		metricsUS = append(metricsUS, us(since(start)))
	}
	rc.set("machine.new_ms", median(newMS))
	rc.set("machine.reset_ms", median(resetMS))
	rc.set("machine.metrics_us", median(metricsUS))

	if s.profiled {
		out.touchNS, out.profilerOverheadPct = s.profilerCosts(rc)
	}
	return out
}

// profilerCosts measures Touch alone over an address stream captured
// from the workload's agents, and the profiler's cost inside the cycle
// loop: a profiled and an unprofiled twin of the workload's machine
// stepped in alternation.
func (s coreShape) profilerCosts(rc *runCtx) (touchNS, overheadPct float64) {
	agents := s.agents(rc.seed)
	stream := make([]bus.Addr, rc.n(200_000, 2000))
	for i := range stream {
		stream[i] = agents[i%len(agents)].Next(workload.Result{}).Addr
	}
	p := mrc.New()
	for _, a := range stream { // first pass: every address becomes known
		p.Touch(a)
	}
	touchNS = perOp(len(stream), func(i int) { p.Touch(stream[i]) })

	plain, err1 := s.build(rc.seed, s.lines, false)
	probed, err2 := s.build(rc.seed, s.lines, false)
	if err1 != nil || err2 != nil {
		rc.fail("profiler twin machines: %v %v", err1, err2)
		return touchNS, 0
	}
	mrc.Attach(probed)
	var plainMS, probedMS []float64
	segment := uint64(rc.n(int(s.segment), 100))
	for i := 0; i < 41; i++ { // the first pair warms both machines
		start := now()
		err1 = plain.RunFor(segment)
		mid := now()
		err2 = probed.RunFor(segment)
		end := now()
		if err1 != nil || err2 != nil {
			rc.fail("profiler twin machines: %v %v", err1, err2)
			return touchNS, 0
		}
		if i > 0 {
			plainMS = append(plainMS, ms(mid.Sub(start)))
			probedMS = append(probedMS, ms(end.Sub(mid)))
		}
	}
	return touchNS, 100 * ratio(median(probedMS)-median(plainMS), median(plainMS))
}
