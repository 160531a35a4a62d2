package experiments

import (
	"fmt"
	"sort"

	"repro/internal/bus"
	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/workload"
)

// Ablations: the quantitative claims embedded in the paper's prose.

func init() {
	register(Experiment{
		ID:      "ablation-arrayinit",
		Title:   "Array initialization: bus writes per element (Section 5 claim)",
		Axes:    Axes{Scale: true}, // the init stream is seed-free
		Version: 1,
		Run: func(p Params) (*Table, error) {
			return ArrayInitAblation(p)
		},
	})
	register(Experiment{
		ID:      "ablation-lock",
		Title:   "Lock contention: bus transactions per acquisition (Section 6)",
		Axes:    Axes{Seed: true, Scale: true},
		Version: 1,
		Chart:   &ChartSpec{Labels: []int{0, 1}, Value: 4}, // txns/acquisition
		Run: func(p Params) (*Table, error) {
			return LockAblation(p)
		},
	})
	register(Experiment{
		ID:      "ablation-mix",
		Title:   "Read/write mix sweep: bus traffic per reference by protocol",
		Axes:    Axes{Seed: true, Scale: true},
		Version: 1,
		Chart:   &ChartSpec{Labels: []int{1, 0}, Value: 2}, // bus txns/ref
		Run: func(p Params) (*Table, error) {
			return MixSweep(p)
		},
	})
	register(Experiment{
		ID:      "ablation-threshold",
		Title:   "RWB write-streak threshold k (Section 5, footnote 6)",
		Axes:    Axes{Seed: true, Scale: true},
		Version: 1,
		Run: func(p Params) (*Table, error) {
			return ThresholdAblation(p)
		},
	})
	register(Experiment{
		ID:      "ablation-fault",
		Title:   "Memory fault recovery from replicated cache copies (Section 8)",
		Axes:    Axes{Seed: true, Scale: true},
		Version: 1,
		Run: func(p Params) (*Table, error) {
			return FaultRecovery(p)
		},
	})
}

// ArrayInitRow is one protocol's array-initialization cost.
type ArrayInitRow struct {
	Protocol            string
	Elements            int
	BusWrites           uint64
	BusWritesPerElement float64
}

// ArrayInitRows measures the Section 5 claim: "Under the RB scheme, there
// would be two bus writes for each item; ... In RWB, there will be only
// one bus write per item." The array is 4x the cache, so every line is
// eventually evicted.
func ArrayInitRows(p Params) ([]ArrayInitRow, error) {
	p = p.withDefaults()
	const cacheLines = 64
	elements := cacheLines * 4 * p.Scale
	var rows []ArrayInitRow
	for _, kind := range []coherence.Kind{coherence.KindRB, coherence.KindRBDirty, coherence.KindRWB, coherence.KindGoodman, coherence.KindWriteThrough} {
		proto := coherence.New(kind)
		m, err := p.Machine("arrayinit/"+proto.Name(), machine.Config{
			Protocol:         proto,
			CacheLines:       cacheLines,
			CheckConsistency: true,
		}, []workload.Agent{workload.NewArrayInit(0, elements)})
		if err != nil {
			return nil, err
		}
		if _, err := m.Run(uint64(elements) * 100); err != nil {
			return nil, err
		}
		if !m.Done() {
			return nil, fmt.Errorf("arrayinit: %s did not finish", proto.Name())
		}
		// Drain: evict everything by flushing remaining dirty lines via a
		// second pass... instead count the write-backs still owed.
		writes := m.Metrics().Bus.Writes()
		owed := uint64(0)
		for _, e := range m.Cache(0).Entries() {
			if proto.WritebackOnEvict(e.State, e.Dirty) {
				owed++
			}
		}
		total := writes + owed
		rows = append(rows, ArrayInitRow{
			Protocol:            proto.Name(),
			Elements:            elements,
			BusWrites:           total,
			BusWritesPerElement: float64(total) / float64(elements),
		})
	}
	return rows, nil
}

// ArrayInitAblation renders the bus writes per initialized element.
func ArrayInitAblation(p Params) (*report.Table, error) {
	rows, err := ArrayInitRows(p)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		ID:      "ablation-arrayinit",
		Title:   "Initializing an array much larger than the cache",
		Columns: []string{"Protocol", "Elements", "Bus writes (incl. owed write-backs)", "Per element"},
		Note:    "the paper's claim: RB pays ~2 bus writes per element (write-through + write-back), RWB ~1",
	}
	for _, r := range rows {
		t.AddRowf(r.Protocol, r.Elements, r.BusWrites, r.BusWritesPerElement)
	}
	return t, nil
}

// LockRow is one (protocol, strategy) contention measurement.
type LockRow struct {
	Protocol     string
	Strategy     string
	Acquisitions int
	BusTxns      uint64
	TxnsPerAcq   float64
	Cycles       uint64
}

// LockRows measures bus transactions per completed lock acquisition for
// TS vs TTS across the protocols: Section 6's hot-spot elimination,
// quantified.
func LockRows(p Params) ([]LockRow, error) {
	p = p.withDefaults()
	const pes = 8
	iters := 20 * p.Scale
	var rows []LockRow
	for _, kind := range []coherence.Kind{coherence.KindRB, coherence.KindRWB, coherence.KindGoodman, coherence.KindIllinois, coherence.KindWriteThrough} {
		proto := coherence.New(kind)
		for _, strat := range []workload.Strategy{workload.StrategyTS, workload.StrategyTTS} {
			locks := make([]*workload.Spinlock, pes)
			agents := make([]workload.Agent, pes)
			for i := range agents {
				s, err := workload.NewSpinlock(workload.SpinlockConfig{
					Lock: 100, Strategy: strat, Iterations: iters,
					CriticalReads: 3, CriticalWrites: 3,
					GuardedBase: 200, GuardedWords: 8,
					Seed: p.Seed + uint64(i),
				})
				if err != nil {
					return nil, err
				}
				locks[i], agents[i] = s, s
			}
			m, err := p.Machine(fmt.Sprintf("lock/%s/%s", proto.Name(), strat), machine.Config{
				Protocol:         proto,
				CacheLines:       64,
				CheckConsistency: true,
			}, agents)
			if err != nil {
				return nil, err
			}
			if _, err := m.Run(uint64(iters) * uint64(pes) * 20000); err != nil {
				return nil, err
			}
			if !m.Done() {
				return nil, fmt.Errorf("lock: %s/%s did not finish", proto.Name(), strat)
			}
			total := 0
			for _, s := range locks {
				total += s.Acquisitions()
			}
			mt := m.Metrics()
			rows = append(rows, LockRow{
				Protocol:     proto.Name(),
				Strategy:     strat.String(),
				Acquisitions: total,
				BusTxns:      mt.Bus.Transactions(),
				TxnsPerAcq:   float64(mt.Bus.Transactions()) / float64(total),
				Cycles:       mt.Cycles,
			})
		}
	}
	return rows, nil
}

// LockAblation renders the contention measurements.
func LockAblation(p Params) (*report.Table, error) {
	rows, err := LockRows(p)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		ID:      "ablation-lock",
		Title:   "8 PEs contending for one lock (critical section of 6 shared accesses)",
		Columns: []string{"Protocol", "Strategy", "Acquisitions", "Bus txns", "Txns/acquisition", "Cycles"},
		Note:    "TTS spins in the cache, so its per-acquisition bus cost is far below TS's",
	}
	for _, r := range rows {
		t.AddRowf(r.Protocol, r.Strategy, r.Acquisitions, r.BusTxns, r.TxnsPerAcq, r.Cycles)
	}
	return t, nil
}

// MixRow is one point of the read/write mix sweep.
type MixRow struct {
	WriteFrac float64
	Protocol  string
	BusPerRef float64
}

// MixRows sweeps the write fraction of a shared-data workload, measuring
// bus transactions per reference under each protocol — the assumption-1
// sensitivity study ("Each data item is referenced more often with a read
// operation than with a write operation").
func MixRows(p Params) ([]MixRow, error) {
	p = p.withDefaults()
	const pes = 4
	refs := 3000 * p.Scale
	var rows []MixRow
	for _, wf := range []float64{0.05, 0.1, 0.2, 0.35, 0.5} {
		for _, k := range []coherence.Kind{coherence.KindRB, coherence.KindRWB, coherence.KindGoodman, coherence.KindIllinois, coherence.KindWriteThrough} {
			agents := make([]workload.Agent, pes)
			for i := range agents {
				agents[i] = workload.NewRandom(0, 64, refs, wf, 0, p.Seed+uint64(i))
			}
			m, err := p.Machine(fmt.Sprintf("mix/%s/wf=%v", k, wf), machine.Config{
				Protocol:         coherence.New(k),
				CacheLines:       128,
				CheckConsistency: true,
			}, agents)
			if err != nil {
				return nil, err
			}
			if _, err := m.Run(uint64(refs) * uint64(pes) * 100); err != nil {
				return nil, err
			}
			if !m.Done() {
				return nil, fmt.Errorf("mix: %v at wf=%v did not finish", k, wf)
			}
			rows = append(rows, MixRow{WriteFrac: wf, Protocol: k.String(), BusPerRef: m.Metrics().BusPerRef()})
		}
	}
	return rows, nil
}

// MixSweep renders the sweep.
func MixSweep(p Params) (*report.Table, error) {
	rows, err := MixRows(p)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		ID:      "ablation-mix",
		Title:   "Bus transactions per reference vs. write fraction (4 PEs, shared data)",
		Columns: []string{"Write frac", "Protocol", "Bus txns/ref"},
		Note:    "read-dominated mixes favor the broadcasting schemes; write-heavy mixes erode their edge",
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].WriteFrac != rows[j].WriteFrac {
			return rows[i].WriteFrac < rows[j].WriteFrac
		}
		return rows[i].Protocol < rows[j].Protocol
	})
	for _, r := range rows {
		t.AddRowf(r.WriteFrac, r.Protocol, r.BusPerRef)
	}
	return t, nil
}

// ThresholdRow is one RWB-k measurement.
type ThresholdRow struct {
	K         uint8
	Workload  string
	BusPerRef float64
}

// ThresholdRows sweeps the RWB write-streak threshold over two contrasting
// workloads: a single repeated writer (favors small k: claim Local early)
// and a write-then-read-by-others ping-pong (favors large k: stay in the
// broadcasting states).
func ThresholdRows(p Params) ([]ThresholdRow, error) {
	p = p.withDefaults()
	refs := 4000 * p.Scale
	var rows []ThresholdRow
	for _, k := range []uint8{2, 3, 4} {
		for _, kind := range []string{"private-writer", "ping-pong"} {
			var agents []workload.Agent
			switch kind {
			case "private-writer":
				// One PE hammers its own words; another idles on other data.
				agents = []workload.Agent{
					workload.NewRandom(0, 8, refs, 0.9, 0, p.Seed),
					workload.NewRandom(1000, 8, refs, 0.9, 0, p.Seed+1),
				}
			default: // ping-pong: both PEs read and write the same small set.
				agents = []workload.Agent{
					workload.NewRandom(0, 8, refs, 0.5, 0, p.Seed),
					workload.NewRandom(0, 8, refs, 0.5, 0, p.Seed+1),
				}
			}
			m, err := p.Machine(fmt.Sprintf("threshold/k=%d/%s", k, kind), machine.Config{
				Protocol:         coherence.NewRWB(k),
				CacheLines:       32,
				CheckConsistency: true,
			}, agents)
			if err != nil {
				return nil, err
			}
			if _, err := m.Run(uint64(refs) * 100); err != nil {
				return nil, err
			}
			if !m.Done() {
				return nil, fmt.Errorf("threshold: k=%d %s did not finish", k, kind)
			}
			rows = append(rows, ThresholdRow{K: k, Workload: kind, BusPerRef: m.Metrics().BusPerRef()})
		}
	}
	return rows, nil
}

// ThresholdAblation renders the k sweep.
func ThresholdAblation(p Params) (*report.Table, error) {
	rows, err := ThresholdRows(p)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		ID:      "ablation-threshold",
		Title:   "RWB with k uninterrupted writes required to claim Local",
		Columns: []string{"k", "Workload", "Bus txns/ref"},
		Note:    "footnote 6's design knob: private writers want small k, shared ping-pong wants the broadcast states",
	}
	for _, r := range rows {
		t.AddRowf(r.K, r.Workload, r.BusPerRef)
	}
	return t, nil
}

// FaultRow is one protocol's recovery measurement.
type FaultRow struct {
	Protocol    string
	Corrupted   int
	Recoverable int
	Fraction    float64
}

// FaultRows measures Section 8's reliability remark ("the exploitation of
// replicated values in the various caches to improve the reliability of
// the memory"; Section 5: under RWB "there is a higher probability that
// some cache contains a correct copy"): after a shared read-mostly
// workload quiesces, every memory word in the shared segment is corrupted
// and we count how many can be restored from a clean cached copy.
func FaultRows(p Params) ([]FaultRow, error) {
	p = p.withDefaults()
	const pes, words = 4, 256
	refs := 3000 * p.Scale
	var rows []FaultRow
	for _, kind := range []coherence.Kind{coherence.KindRB, coherence.KindRWB, coherence.KindGoodman} {
		proto := coherence.New(kind)
		agents := make([]workload.Agent, pes)
		for i := range agents {
			// Write-heavy shared traffic: invalidation-based schemes leave
			// fewer surviving replicas.
			agents[i] = workload.NewRandom(0, words, refs, 0.5, 0, p.Seed+uint64(i))
		}
		m, err := p.Machine("faultrecovery/"+proto.Name(), machine.Config{
			Protocol:         proto,
			CacheLines:       64,
			CheckConsistency: true,
		}, agents)
		if err != nil {
			return nil, err
		}
		if _, err := m.Run(uint64(refs) * uint64(pes) * 100); err != nil {
			return nil, err
		}
		if !m.Done() {
			return nil, fmt.Errorf("fault: %s did not finish", proto.Name())
		}
		corrupted, recovered := 0, 0
		for a := bus.Addr(0); a < words; a++ {
			before := m.Memory().Peek(a)
			m.Memory().Corrupt(a, 0xdeadbeef)
			corrupted++
			if v, clean, ok := ScavengeCopy(m, a); ok {
				recovered++
				if clean && v != before {
					return nil, fmt.Errorf("fault: %s: clean copy of %d disagrees with memory", proto.Name(), a)
				}
				m.Memory().Poke(a, v)
			} else {
				m.Memory().Poke(a, before) // undo; nothing to recover from
			}
		}
		rows = append(rows, FaultRow{
			Protocol:    proto.Name(),
			Corrupted:   corrupted,
			Recoverable: recovered,
			Fraction:    float64(recovered) / float64(corrupted),
		})
	}
	return rows, nil
}

// ScavengeCopy searches every cache for a usable replica of addr: a dirty
// copy is the (unique) latest value and is preferred; otherwise any valid
// clean copy is byte-identical to the uncorrupted memory word. clean
// reports which kind was found.
func ScavengeCopy(m *machine.Machine, a bus.Addr) (v bus.Word, clean, ok bool) {
	var cleanVal bus.Word
	var haveClean bool
	for pe := 0; pe < m.Processors(); pe++ {
		st, val, present := m.Cache(pe).Lookup(a)
		if !present || st == coherence.Invalid {
			continue
		}
		for _, e := range m.Cache(pe).Entries() {
			if e.Addr != a {
				continue
			}
			if e.Dirty {
				return val, false, true // the latest value, by the lemma
			}
			cleanVal, haveClean = val, true
		}
	}
	return cleanVal, true, haveClean
}

// FaultRecovery renders the recovery fractions.
func FaultRecovery(p Params) (*report.Table, error) {
	rows, err := FaultRows(p)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		ID:      "ablation-fault",
		Title:   "Recovering corrupted memory words from replicated cache copies",
		Columns: []string{"Protocol", "Words corrupted", "Recovered", "Fraction"},
		Note:    "RWB keeps more live replicas (updates instead of invalidates), so more words are recoverable",
	}
	for _, r := range rows {
		t.AddRowf(r.Protocol, r.Corrupted, r.Recoverable, r.Fraction)
	}
	return t, nil
}

func init() {
	register(Experiment{
		ID:      "ablation-private",
		Title:   "Private-data writes: bus traffic per reference (Section 2, assumption 2)",
		Axes:    Axes{Seed: true, Scale: true},
		Version: 1,
		Run: func(p Params) (*Table, error) {
			return PrivateAblation(p)
		},
	})
}

// PrivateRow is one protocol's private-data cost.
type PrivateRow struct {
	Protocol  string
	BusPerRef float64
}

// PrivateRows measures bus transactions per reference when every PE reads
// and writes only its own data — the "local variables" regime the paper's
// assumption 2 says dominates. The dynamic-classification schemes (RB's
// Local state, Illinois's silent E->M upgrade) should approach zero
// steady-state traffic; write-through pays for every store forever.
func PrivateRows(p Params) ([]PrivateRow, error) {
	p = p.withDefaults()
	const pes = 4
	refs := 4000 * p.Scale
	var rows []PrivateRow
	for _, k := range []coherence.Kind{coherence.KindRB, coherence.KindRWB, coherence.KindGoodman, coherence.KindIllinois, coherence.KindWriteThrough} {
		agents := make([]workload.Agent, pes)
		for i := range agents {
			// Disjoint 16-word working sets, half writes: pure private use.
			agents[i] = workload.NewRandom(bus.Addr(1000*i), 16, refs, 0.5, 0, p.Seed+uint64(i))
		}
		m, err := p.Machine(fmt.Sprintf("private/%s", k), machine.Config{
			Protocol:         coherence.New(k),
			CacheLines:       64,
			CheckConsistency: true,
		}, agents)
		if err != nil {
			return nil, err
		}
		if _, err := m.Run(uint64(refs) * uint64(pes) * 100); err != nil {
			return nil, err
		}
		if !m.Done() {
			return nil, fmt.Errorf("private: %v did not finish", k)
		}
		rows = append(rows, PrivateRow{Protocol: k.String(), BusPerRef: m.Metrics().BusPerRef()})
	}
	return rows, nil
}

// PrivateAblation renders the private-data comparison.
func PrivateAblation(p Params) (*report.Table, error) {
	rows, err := PrivateRows(p)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		ID:      "ablation-private",
		Title:   "4 PEs referencing disjoint private data (50% writes)",
		Columns: []string{"Protocol", "Bus txns/ref"},
		Note: "dynamic classification at work: RB/RWB reach the Local state and Illinois the " +
			"Modified state after warmup, so private writes stop using the bus entirely",
	}
	for _, r := range rows {
		t.AddRowf(r.Protocol, r.BusPerRef)
	}
	return t, nil
}
