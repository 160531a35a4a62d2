// Package config defines the JSON run specification consumed by
// cmd/mimdsim -config: a complete, reproducible description of a
// simulation — machine geometry, protocol, workload, seed — that can be
// checked into an experiments directory and rerun bit-identically.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/bus"
	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/workload"
)

// RunSpec is one simulation run.
type RunSpec struct {
	// Protocol is the coherence scheme name ("rb", "rwb", ...).
	Protocol string `json:"protocol"`
	// RWBThreshold is the RWB write-streak k (default 2; ignored for
	// other protocols).
	RWBThreshold uint8 `json:"rwb_threshold,omitempty"`
	// PEs is the processor count.
	PEs int `json:"pes"`
	// CacheLines per PE (default 1024); CacheWays defaults to 1.
	CacheLines int `json:"cache_lines,omitempty"`
	CacheWays  int `json:"cache_ways,omitempty"`
	// Buses is the interleaved bus count (default 1).
	Buses int `json:"buses,omitempty"`
	// MemLatency is extra bus-hold cycles per memory access.
	MemLatency int `json:"mem_latency,omitempty"`
	// Seed drives the workload generators (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// MaxCycles bounds the run (default 100M).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// DisableCheck turns the consistency oracle off.
	DisableCheck bool `json:"disable_check,omitempty"`
	// TwoPhaseRMW selects the locked-bus Test-and-Set realization.
	TwoPhaseRMW bool `json:"two_phase_rmw,omitempty"`
	// WatchdogCycles aborts on a stalled PE (default 1M; 0 keeps the
	// default — use -1 semantics via DisableWatchdog).
	WatchdogCycles  uint64 `json:"watchdog_cycles,omitempty"`
	DisableWatchdog bool   `json:"disable_watchdog,omitempty"`
	// Workload selects the per-PE programs.
	Workload WorkloadSpec `json:"workload"`
}

// WorkloadSpec selects and parameterizes the generators.
type WorkloadSpec struct {
	// Kind: pde, qsort, spinlock-ts, spinlock-tts, arrayinit, hotspot,
	// random, producer-consumer, barrier.
	Kind string `json:"kind"`
	// Refs is the per-PE reference/op count (generator kinds).
	Refs int `json:"refs,omitempty"`
	// Iterations for spinlock kinds; Rounds for barrier.
	Iterations int `json:"iterations,omitempty"`
	Rounds     int `json:"rounds,omitempty"`
	// WriteFrac / TSFrac for the random kind.
	WriteFrac float64 `json:"write_frac,omitempty"`
	TSFrac    float64 `json:"ts_frac,omitempty"`
	// Words is the random kind's address-window size.
	Words int `json:"words,omitempty"`
}

// Load parses a RunSpec from JSON, rejecting unknown fields (a typoed key
// silently changing an experiment is worse than an error).
func Load(r io.Reader) (*RunSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s RunSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads a RunSpec from a file.
func LoadFile(path string) (*RunSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Save writes the spec as indented JSON.
func (s *RunSpec) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// withDefaults fills the optional fields.
func (s RunSpec) withDefaults() RunSpec {
	if s.Protocol == "" {
		s.Protocol = "rb"
	}
	if s.PEs == 0 {
		s.PEs = 4
	}
	if s.CacheLines == 0 {
		s.CacheLines = 1024
	}
	if s.CacheWays == 0 {
		s.CacheWays = 1
	}
	if s.Buses == 0 {
		s.Buses = 1
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.MaxCycles == 0 {
		s.MaxCycles = 100_000_000
	}
	if s.WatchdogCycles == 0 {
		s.WatchdogCycles = 1_000_000
	}
	if s.Workload.Kind == "" {
		s.Workload.Kind = "pde"
	}
	if s.Workload.Refs == 0 {
		s.Workload.Refs = 20000
	}
	if s.Workload.Iterations == 0 {
		s.Workload.Iterations = 50
	}
	if s.Workload.Rounds == 0 {
		s.Workload.Rounds = 20
	}
	if s.Workload.Words == 0 {
		s.Workload.Words = 256
	}
	if s.Workload.WriteFrac == 0 {
		s.Workload.WriteFrac = 0.3
	}
	return s
}

// Validate reports configuration errors.
func (s *RunSpec) Validate() error {
	d := s.withDefaults()
	if _, err := coherence.ByName(d.Protocol); err != nil {
		return err
	}
	if d.PEs < 1 {
		return fmt.Errorf("config: pes = %d", d.PEs)
	}
	switch d.Workload.Kind {
	case "pde", "qsort", "spinlock-ts", "spinlock-tts", "arrayinit",
		"hotspot", "random", "producer-consumer", "barrier":
	default:
		return fmt.Errorf("config: unknown workload kind %q", d.Workload.Kind)
	}
	if d.Workload.WriteFrac < 0 || d.Workload.WriteFrac > 1 ||
		d.Workload.TSFrac < 0 || d.Workload.TSFrac > 1 {
		return fmt.Errorf("config: workload fractions out of range")
	}
	return nil
}

// Build assembles the machine configuration and agents the spec
// describes.
func (s *RunSpec) Build() (machine.Config, []workload.Agent, error) {
	if err := s.Validate(); err != nil {
		return machine.Config{}, nil, err
	}
	d := s.withDefaults()

	var proto coherence.Protocol
	var err error
	if d.Protocol == "rwb" && d.RWBThreshold > 2 {
		proto = coherence.NewRWB(d.RWBThreshold)
	} else if proto, err = coherence.ByName(d.Protocol); err != nil {
		return machine.Config{}, nil, err
	}

	watchdog := d.WatchdogCycles
	if d.DisableWatchdog {
		watchdog = 0
	}
	cfg := machine.Config{
		Protocol:         proto,
		CacheLines:       d.CacheLines,
		CacheWays:        d.CacheWays,
		Buses:            d.Buses,
		MemLatency:       d.MemLatency,
		CheckConsistency: !d.DisableCheck,
		TwoPhaseRMW:      d.TwoPhaseRMW,
		StallCycles:      watchdog,
	}

	agents, err := d.buildAgents()
	if err != nil {
		return machine.Config{}, nil, err
	}
	return cfg, agents, nil
}

func (d RunSpec) buildAgents() ([]workload.Agent, error) {
	agents := make([]workload.Agent, d.PEs)
	layout := workload.DefaultLayout()
	w := d.Workload
	for i := range agents {
		switch w.Kind {
		case "pde", "qsort":
			prof := workload.PDEProfile()
			if w.Kind == "qsort" {
				prof = workload.QuicksortProfile()
			}
			app, err := workload.NewApp(prof, layout, i, d.Seed, w.Refs)
			if err != nil {
				return nil, err
			}
			agents[i] = app
		case "spinlock-ts", "spinlock-tts":
			strat := workload.StrategyTS
			if w.Kind == "spinlock-tts" {
				strat = workload.StrategyTTS
			}
			s, err := workload.NewSpinlock(workload.SpinlockConfig{
				Lock: 100, Strategy: strat, Iterations: w.Iterations,
				CriticalReads: 3, CriticalWrites: 3,
				GuardedBase: 200, GuardedWords: 8,
				Seed: d.Seed + uint64(i),
			})
			if err != nil {
				return nil, err
			}
			agents[i] = s
		case "arrayinit":
			agents[i] = workload.NewArrayInit(bus.Addr(i*w.Refs), w.Refs)
		case "hotspot":
			agents[i] = workload.NewHotspot(100, w.Refs)
		case "random":
			agents[i] = workload.NewRandom(0, w.Words, w.Refs, w.WriteFrac, w.TSFrac, d.Seed+uint64(i))
		case "producer-consumer":
			if i == 0 {
				agents[i] = workload.NewProducer(10, 11, w.Refs, 20)
			} else {
				agents[i] = workload.NewConsumer(10, 11, w.Refs)
			}
		case "barrier":
			b, err := workload.NewBarrier(workload.BarrierConfig{
				Lock: 0, Counter: 1, Sense: 2, Progress: 16,
				Participants: d.PEs, Rounds: w.Rounds,
				WorkCycles: 1 + 7*i,
				ID:         i,
			})
			if err != nil {
				return nil, err
			}
			agents[i] = b
		default:
			return nil, fmt.Errorf("config: unknown workload kind %q", w.Kind)
		}
	}
	return agents, nil
}

// MaxCyclesOrDefault returns the run's cycle budget.
func (s *RunSpec) MaxCyclesOrDefault() uint64 {
	return s.withDefaults().MaxCycles
}
