package repro

import (
	"repro/internal/bus"
	"repro/internal/check"
	"repro/internal/coherence"
	"repro/internal/experiments"
	"repro/internal/hier"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/workload"
)

// Core value types.
type (
	// Addr is a word address in the shared address space.
	Addr = bus.Addr
	// Word is the machine word.
	Word = bus.Word
)

// Machine assembly.
type (
	// MachineConfig describes a machine (processor count comes from the
	// agent list).
	MachineConfig = machine.Config
	// Machine is the assembled shared-bus multiprocessor.
	Machine = machine.Machine
	// Metrics is an aggregate counter snapshot.
	Metrics = machine.Metrics
	// ConsistencyError is an oracle violation: a stale read.
	ConsistencyError = machine.ConsistencyError
)

// NewMachine builds a machine running one agent per processing element.
func NewMachine(cfg MachineConfig, agents []Agent) (*Machine, error) {
	return machine.New(cfg, agents)
}

// Protocols.
type (
	// Protocol is a cache-consistency scheme as a pure transition table.
	Protocol = coherence.Protocol
	// State is a cache line's protocol state tag.
	State = coherence.State
)

// The protocol states of the paper's schemes (Figures 3-1 and 5-1).
const (
	StateInvalid    = coherence.Invalid
	StateReadable   = coherence.Readable
	StateLocal      = coherence.Local
	StateFirstWrite = coherence.FirstWrite
)

// RB returns the paper's RB (read-broadcast) scheme of Section 3.
func RB() Protocol { return coherence.New(coherence.KindRB) }

// RWB returns the paper's RWB (read-write-broadcast) scheme of Section 5
// with the given write-streak threshold k (the paper uses 2).
func RWB(k uint8) Protocol { return coherence.NewRWB(k) }

// Goodman returns the write-once comparison baseline [GOO83].
func Goodman() Protocol { return coherence.New(coherence.KindGoodman) }

// WriteThrough returns the write-through-invalidate baseline.
func WriteThrough() Protocol { return coherence.New(coherence.KindWriteThrough) }

// CmStar returns the Table 1-1 emulation baseline (code and local data
// cachable, write-through local data, shared data uncached).
func CmStar() Protocol { return coherence.New(coherence.KindCmStar) }

// NoCache returns the cacheless baseline.
func NoCache() Protocol { return coherence.New(coherence.KindNoCache) }

// Illinois returns the Illinois/MESI-style comparison protocol
// (Papamarcos & Patel, ISCA 1984), with a clean-exclusive state chosen by
// the bus's shared line.
func Illinois() Protocol { return coherence.New(coherence.KindIllinois) }

// ProtocolByName resolves "rb", "rwb", "goodman", "illinois",
// "writethrough", "cmstar", "nocache" or "rb-dirty".
func ProtocolByName(name string) (Protocol, error) {
	t, err := coherence.ByName(name)
	if err != nil {
		return nil, err // not a nil *Table inside a non-nil Protocol
	}
	return t, nil
}

// ProtocolNames lists the valid protocol names.
func ProtocolNames() []string {
	var names []string
	for _, k := range coherence.Kinds() {
		names = append(names, k.String())
	}
	return names
}

// Workloads.
type (
	// Agent is a reactive processor program.
	Agent = workload.Agent
	// Op is one processor operation.
	Op = workload.Op
	// AppProfile parameterizes the synthetic Table 1-1 application.
	AppProfile = workload.AppProfile
	// Layout assigns the shared/code/local address segments.
	Layout = workload.Layout
	// SpinlockConfig parameterizes a lock-contention agent.
	SpinlockConfig = workload.SpinlockConfig
	// Spinlock is the TS/TTS contention agent of the Figure 6 scenarios.
	Spinlock = workload.Spinlock
	// Strategy selects TS or TTS acquisition.
	Strategy = workload.Strategy
)

// Lock-acquisition strategies (Section 6).
const (
	StrategyTS  = workload.StrategyTS
	StrategyTTS = workload.StrategyTTS
)

// NewSpinlock builds a spin-lock agent; it panics on invalid
// configuration (use workload.NewSpinlock via the internal API for the
// error-returning form).
func NewSpinlock(cfg SpinlockConfig) *Spinlock { return workload.MustSpinlock(cfg) }

// NewApp builds one PE's synthetic-application agent (the Table 1-1
// workload).
func NewApp(profile AppProfile, layout Layout, pe int, seed uint64, maxRefs int) (Agent, error) {
	return workload.NewApp(profile, layout, pe, seed, maxRefs)
}

// PDEProfile and QuicksortProfile are the two Table 1-1 applications.
func PDEProfile() AppProfile       { return workload.PDEProfile() }
func QuicksortProfile() AppProfile { return workload.QuicksortProfile() }

// DefaultLayout returns the standard segment layout.
func DefaultLayout() Layout { return workload.DefaultLayout() }

// NewArrayInit builds the Section 5 array-initialization agent.
func NewArrayInit(base Addr, words int) Agent { return workload.NewArrayInit(base, words) }

// NewHotspot builds the shared-counter stressor.
func NewHotspot(addr Addr, increments int) Agent { return workload.NewHotspot(addr, increments) }

// NewRandom builds the uniform fuzzing agent used by the property tests.
func NewRandom(base Addr, words, ops int, writeFrac, tsFrac float64, seed uint64) Agent {
	return workload.NewRandom(base, words, ops, writeFrac, tsFrac, seed)
}

// TraceOf builds a replay agent from a fixed operation sequence.
func TraceOf(ops ...Op) Agent { return workload.NewTrace(ops...) }

// Experiments (the paper's tables and figures).
type (
	// Experiment is one reproducible paper artifact.
	Experiment = experiments.Experiment
	// ExperimentParams tunes a run (Seed, Scale).
	ExperimentParams = experiments.Params
	// Table is a rendered result table.
	Table = report.Table
)

// Experiments returns every registered paper artifact in paper order.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment executes one artifact by id ("table1-1", "fig6-2", ...).
func RunExperiment(id string, p ExperimentParams) (*Table, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(p)
}

// Hierarchical machines (the Section 8 future-work extension).
type (
	// HierConfig describes a two-level cluster machine.
	HierConfig = hier.Config
	// HierMachine is clusters of PEs behind inclusive cluster caches on
	// a global bus.
	HierMachine = hier.Machine
)

// NewHierMachine builds a hierarchical machine; agents[c][p] is the
// program of PE p in cluster c.
func NewHierMachine(cfg HierConfig, agents [][]Agent) (*HierMachine, error) {
	return hier.New(cfg, agents)
}

// Model checking (the Section 4 proof, mechanized).
type (
	// CheckOptions configures an exhaustive protocol exploration.
	CheckOptions = check.Options
	// CheckResult summarizes an exploration.
	CheckResult = check.Result
)

// CheckProtocol exhaustively verifies a protocol's consistency for n
// caches, applying the matching configuration lemma for the paper's
// schemes.
func CheckProtocol(p Protocol, n int) (CheckResult, error) {
	opt := check.Options{Caches: n}
	switch p.Name() {
	case "rb":
		opt.Invariant = check.RBLemma
	case "rwb":
		opt.Invariant = check.RWBLemma
	}
	return check.Run(p, opt)
}
