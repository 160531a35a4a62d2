package config

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestLoadDefaults(t *testing.T) {
	s, err := Load(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, agents, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Protocol.Name() != "rb" || len(agents) != 4 || cfg.CacheLines != 1024 {
		t.Fatalf("defaults: proto=%s agents=%d lines=%d", cfg.Protocol.Name(), len(agents), cfg.CacheLines)
	}
	if !cfg.CheckConsistency || cfg.StallCycles != 1_000_000 {
		t.Fatalf("defaults: check=%v watchdog=%d", cfg.CheckConsistency, cfg.StallCycles)
	}
	if s.MaxCycles != 100_000_000 {
		t.Fatalf("MaxCycles = %d", s.MaxCycles)
	}
	if *s != Default() {
		t.Fatalf("{} loaded as %+v, want Default()", *s)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"protocl": "rb"}`)); err == nil {
		t.Fatal("typoed field accepted")
	}
}

func TestLoadRejectsBadValues(t *testing.T) {
	for _, bad := range []string{
		`{"protocol": "mesi"}`,
		`{"pes": -1}`,
		`{"workload": {"kind": "frobnicate"}}`,
		`{"workload": {"kind": "random", "write_frac": 2}}`,
		`{"workload": {"kind": "trace"}}`,
		`{"pes": 0}`,
		`not json`,
	} {
		if _, err := Load(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestSaveRoundTrip(t *testing.T) {
	s, err := Load(strings.NewReader(`{
		"protocol": "rwb", "rwb_threshold": 3, "pes": 6,
		"cache_lines": 256, "buses": 2, "seed": 9,
		"workload": {"kind": "spinlock-tts", "iterations": 7}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if *s2 != *s {
		t.Fatalf("round trip changed spec: %+v vs %+v", s2, s)
	}
}

func TestBuildRWBThreshold(t *testing.T) {
	for _, k := range []int{2, 4, 255} {
		s, err := Load(strings.NewReader(fmt.Sprintf(`{"protocol": "rwb", "rwb_threshold": %d}`, k)))
		if err != nil {
			t.Fatal(err)
		}
		cfg, _, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		if rwb, ok := cfg.Protocol.(*coherence.Table); !ok || rwb.Name() != "rwb" || int(rwb.K) != k {
			t.Fatalf("rwb_threshold %d built %#v", k, cfg.Protocol)
		}
	}
	if s, err := Load(strings.NewReader(`{"protocol": "rwb"}`)); err != nil || s.RWBThreshold != 2 {
		t.Fatalf("absent rwb_threshold: %+v, %v", s, err)
	}
}

// TestRWBThresholdValidated: k below 2 used to run k=2 silently (JSON)
// or panic in coherence.NewRWB (flags), and k above 255 used to wrap
// through uint8. Other protocols ignore the field.
func TestRWBThresholdValidated(t *testing.T) {
	for _, k := range []int{-1, 0, 1, 256, 258} {
		doc := fmt.Sprintf(`{"protocol": "rwb", "rwb_threshold": %d}`, k)
		if _, err := Load(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), "threshold") {
			t.Errorf("rwb_threshold %d: err = %v, want a threshold error", k, err)
		}
		spec := Default()
		spec.Protocol, spec.RWBThreshold = "rwb", k
		if _, _, err := spec.Build(); err == nil {
			t.Errorf("Build accepted k = %d", k)
		}
		spec.Protocol = "rb"
		if _, _, err := spec.Build(); err != nil {
			t.Errorf("rb with an unused k = %d: %v", k, err)
		}
	}
}

// TestExplicitZeroIsZero: a key that is present means what it says.
func TestExplicitZeroIsZero(t *testing.T) {
	s, err := Load(strings.NewReader(`{"seed": 0, "watchdog_cycles": 0, "workload": {"kind": "random", "write_frac": 0}}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 0 || s.Workload.WriteFrac != 0 || cfg.StallCycles != 0 {
		t.Fatalf("explicit zeros replaced by defaults: %+v", s)
	}
	if s.Workload.Refs != 20000 {
		t.Fatalf("absent key lost its default: refs = %d", s.Workload.Refs)
	}
}

// TestTraceKind: the trace kind replays a file in either format, one
// agent per PE of the trace, whatever pes says.
func TestTraceKind(t *testing.T) {
	recs := []trace.Record{
		{PE: 0, Op: workload.Write(5, 7, coherence.ClassShared)},
		{PE: 2, Op: workload.Read(5, coherence.ClassShared)},
	}
	dir := t.TempDir()
	var bin, text bytes.Buffer
	w := trace.NewWriter(&bin)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteText(&text, recs); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"t.mct": bin.Bytes(), "t.txt": text.Bytes()} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		spec := Default()
		spec.Workload.Kind, spec.Workload.Trace = "trace", path
		cfg, agents, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(agents) != 3 {
			t.Fatalf("%s: %d agents, want 3", name, len(agents))
		}
		m, err := machine.New(cfg, agents)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(10_000); err != nil || !m.Done() {
			t.Fatalf("%s: replay did not finish: %v", name, err)
		}
		if refs := m.Metrics().TotalRefs(); refs != 2 {
			t.Fatalf("%s: %d refs retired, want 2", name, refs)
		}
	}
	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{empty, filepath.Join(dir, "missing")} {
		if _, err := (WorkloadSpec{Kind: "trace", Trace: path}).Agents(0, 0); err == nil {
			t.Errorf("%s accepted", path)
		}
	}
}

// TestEveryWorkloadKindBuildsAndRuns: each kind assembles and a short run
// completes under the oracle.
func TestEveryWorkloadKindBuildsAndRuns(t *testing.T) {
	kinds := []string{"pde", "qsort", "spinlock-ts", "spinlock-tts",
		"arrayinit", "hotspot", "random", "producer-consumer", "barrier"}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			spec := Default()
			spec.PEs = 2
			spec.Workload.Kind, spec.Workload.Refs, spec.Workload.Iterations, spec.Workload.Rounds = kind, 50, 3, 2
			cfg, agents, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			m, err := machine.New(cfg, agents)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(2_000_000); err != nil {
				t.Fatal(err)
			}
			if !m.Done() {
				t.Fatal("did not finish")
			}
		})
	}
}

func TestDisables(t *testing.T) {
	s, err := Load(strings.NewReader(`{"disable_check": true, "disable_watchdog": true}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.CheckConsistency || cfg.StallCycles != 0 {
		t.Fatalf("disables ignored: %+v", cfg)
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/spec.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}
