// Package config defines the one description of a single simulation
// run — machine geometry, protocol, workload, seed — and its one
// resolver. cmd/mimdsim fills a RunSpec from its flags or loads one from
// JSON (-config), cmd/mimdtrace fills a WorkloadSpec to capture a
// generator; both resolve through Validate, Build and
// WorkloadSpec.Agents, so a spec checked into an experiments directory
// reruns bit-identically whichever front end reads it.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/bus"
	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/workload"
)

// RunSpec is one simulation run. Every field is explicit: Default
// supplies the values a front end starts from, and Load decodes JSON
// over them, so a key that is absent keeps its default and a key that is
// present means what it says (a zero included).
type RunSpec struct {
	// Protocol is the coherence scheme name ("rb", "rwb", ...).
	Protocol string `json:"protocol"`
	// RWBThreshold is the RWB write-streak k, 2..255 (ignored for other
	// protocols).
	RWBThreshold int `json:"rwb_threshold"`
	// PEs is the processor count (the trace kind takes it from the trace).
	PEs int `json:"pes"`
	// CacheLines per PE and the associativity (1 = direct-mapped).
	CacheLines int `json:"cache_lines"`
	CacheWays  int `json:"cache_ways"`
	// Buses is the interleaved bus count.
	Buses int `json:"buses"`
	// MemLatency is extra bus-hold cycles per memory access.
	MemLatency int `json:"mem_latency"`
	// Seed drives the workload generators.
	Seed uint64 `json:"seed"`
	// MaxCycles bounds the run.
	MaxCycles uint64 `json:"max_cycles"`
	// DisableCheck turns the consistency oracle off.
	DisableCheck bool `json:"disable_check"`
	// TwoPhaseRMW selects the locked-bus Test-and-Set realization.
	TwoPhaseRMW bool `json:"two_phase_rmw"`
	// WatchdogCycles aborts on a PE stalled this long; 0 or
	// DisableWatchdog turns the watchdog off.
	WatchdogCycles  uint64 `json:"watchdog_cycles"`
	DisableWatchdog bool   `json:"disable_watchdog"`
	// Workload selects the per-PE programs.
	Workload WorkloadSpec `json:"workload"`
}

// WorkloadSpec selects and parameterizes the per-PE programs.
type WorkloadSpec struct {
	// Kind: pde, qsort, spinlock-ts, spinlock-tts, arrayinit, hotspot,
	// random, producer-consumer, barrier, or trace.
	Kind string `json:"kind"`
	// Refs is the per-PE reference/op count (generator kinds).
	Refs int `json:"refs"`
	// Iterations for spinlock kinds; Rounds for barrier.
	Iterations int `json:"iterations"`
	Rounds     int `json:"rounds"`
	// WriteFrac / TSFrac for the random kind.
	WriteFrac float64 `json:"write_frac"`
	TSFrac    float64 `json:"ts_frac"`
	// Words is the random kind's address-window size.
	Words int `json:"words"`
	// Trace is the file the trace kind replays (binary MCT1 or text,
	// sniffed; see internal/trace).
	Trace string `json:"trace,omitempty"`
}

// Default is the spec every front end starts from: 4 RB PEs with
// 1024-line direct-mapped caches on one bus running the PDE mix.
func Default() RunSpec {
	return RunSpec{
		Protocol:       "rb",
		RWBThreshold:   2,
		PEs:            4,
		CacheLines:     1024,
		CacheWays:      1,
		Buses:          1,
		Seed:           1,
		MaxCycles:      100_000_000,
		WatchdogCycles: 1_000_000,
		Workload: WorkloadSpec{
			Kind:       "pde",
			Refs:       20000,
			Iterations: 50,
			Rounds:     20,
			WriteFrac:  0.3,
			Words:      256,
		},
	}
}

// Load parses a RunSpec from JSON over Default, rejecting unknown fields
// (a typoed key silently changing an experiment is worse than an error).
func Load(r io.Reader) (*RunSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	s := Default()
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

// Validate reports configuration errors. It is the only place a run
// description is checked, whichever front end filled it.
func (s *RunSpec) Validate() error {
	if _, err := coherence.ByName(s.Protocol); err != nil {
		return err
	}
	if s.Protocol == "rwb" && (s.RWBThreshold < 2 || s.RWBThreshold > 255) {
		return fmt.Errorf("config: rwb threshold k = %d, want 2..255", s.RWBThreshold)
	}
	w := s.Workload
	switch {
	case w.Kind == "trace":
		if w.Trace == "" {
			return fmt.Errorf("config: workload kind \"trace\" needs a trace file")
		}
	case generators[w.Kind] == nil:
		names := []string{"trace"}
		for name := range generators {
			names = append(names, name)
		}
		sort.Strings(names)
		return fmt.Errorf("config: unknown workload kind %q (valid: %v)", w.Kind, names)
	case s.PEs < 1:
		return fmt.Errorf("config: pes = %d", s.PEs)
	}
	if w.WriteFrac < 0 || w.WriteFrac > 1 || w.TSFrac < 0 || w.TSFrac > 1 {
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
	proto, _ := coherence.ByName(s.Protocol) // Validate resolved it
	if s.Protocol == "rwb" {
		proto = coherence.NewRWB(uint8(s.RWBThreshold))
	}
	watchdog := s.WatchdogCycles
	if s.DisableWatchdog {
		watchdog = 0
	}
	cfg := machine.Config{
		Protocol:         proto,
		CacheLines:       s.CacheLines,
		CacheWays:        s.CacheWays,
		Buses:            s.Buses,
		MemLatency:       s.MemLatency,
		CheckConsistency: !s.DisableCheck,
		TwoPhaseRMW:      s.TwoPhaseRMW,
		StallCycles:      watchdog,
	}
	agents, err := s.Workload.Agents(s.PEs, s.Seed)
	if err != nil {
		return machine.Config{}, nil, err
	}
	return cfg, agents, nil
}

// generators maps each generator kind to the constructor of PE i's
// agent in a pes-PE machine.
var generators = map[string]func(w WorkloadSpec, pes, i int, seed uint64) (workload.Agent, error){
	"pde":          app(workload.PDEProfile),
	"qsort":        app(workload.QuicksortProfile),
	"spinlock-ts":  spinlock(workload.StrategyTS),
	"spinlock-tts": spinlock(workload.StrategyTTS),
	"arrayinit": func(w WorkloadSpec, _, i int, _ uint64) (workload.Agent, error) {
		return workload.NewArrayInit(bus.Addr(i*w.Refs), w.Refs), nil
	},
	"hotspot": func(w WorkloadSpec, _, _ int, _ uint64) (workload.Agent, error) {
		return workload.NewHotspot(100, w.Refs), nil
	},
	"random": func(w WorkloadSpec, _, i int, seed uint64) (workload.Agent, error) {
		return workload.NewRandom(0, w.Words, w.Refs, w.WriteFrac, w.TSFrac, seed+uint64(i)), nil
	},
	"producer-consumer": func(w WorkloadSpec, _, i int, _ uint64) (workload.Agent, error) {
		if i == 0 {
			return workload.NewProducer(10, 11, w.Refs, 20), nil
		}
		return workload.NewConsumer(10, 11, w.Refs), nil
	},
	"barrier": func(w WorkloadSpec, pes, i int, _ uint64) (workload.Agent, error) {
		return workload.NewBarrier(workload.BarrierConfig{
			Lock: 0, Counter: 1, Sense: 2, Progress: 16,
			Participants: pes, Rounds: w.Rounds,
			WorkCycles: 1 + 7*i,
			ID:         i,
		})
	},
}

func app(profile func() workload.AppProfile) func(WorkloadSpec, int, int, uint64) (workload.Agent, error) {
	return func(w WorkloadSpec, _, i int, seed uint64) (workload.Agent, error) {
		return workload.NewApp(profile(), workload.DefaultLayout(), i, seed, w.Refs)
	}
}

func spinlock(strategy workload.Strategy) func(WorkloadSpec, int, int, uint64) (workload.Agent, error) {
	return func(w WorkloadSpec, _, i int, seed uint64) (workload.Agent, error) {
		return workload.NewSpinlock(workload.SpinlockConfig{
			Lock: 100, Strategy: strategy, Iterations: w.Iterations,
			CriticalReads: 3, CriticalWrites: 3,
			GuardedBase: 200, GuardedWords: 8,
			Seed: seed + uint64(i),
		})
	}
}

// Reactive reports whether the kind's agents steer by the results of
// their own operations (locks, flags, barriers), so that a stream
// captured standalone, without a machine answering, is meaningless.
func (w WorkloadSpec) Reactive() bool {
	switch w.Kind {
	case "spinlock-ts", "spinlock-tts", "producer-consumer", "barrier":
		return true
	}
	return false
}

// Agents builds the per-PE programs: pes generator agents, or, for the
// trace kind, one replay agent per PE of the trace file.
func (w WorkloadSpec) Agents(pes int, seed uint64) ([]workload.Agent, error) {
	if w.Kind == "trace" {
		raw, err := os.ReadFile(w.Trace)
		if err != nil {
			return nil, err
		}
		recs, err := trace.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("config: trace %q: %w", w.Trace, err)
		}
		agents := trace.Split(recs)()
		if len(agents) == 0 {
			return nil, fmt.Errorf("config: trace %q is empty", w.Trace)
		}
		return agents, nil
	}
	build := generators[w.Kind]
	if build == nil {
		return nil, fmt.Errorf("config: unknown workload kind %q", w.Kind)
	}
	agents := make([]workload.Agent, pes)
	for i := range agents {
		a, err := build(w, pes, i, seed)
		if err != nil {
			return nil, err
		}
		agents[i] = a
	}
	return agents, nil
}
