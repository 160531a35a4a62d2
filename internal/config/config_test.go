package config

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/machine"
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
	if s.MaxCyclesOrDefault() != 100_000_000 {
		t.Fatalf("MaxCycles = %d", s.MaxCyclesOrDefault())
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
	s, err := Load(strings.NewReader(`{"protocol": "rwb", "rwb_threshold": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Protocol.Name() != "rwb" {
		t.Fatal("wrong protocol")
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
			spec := &RunSpec{
				PEs:      2,
				Workload: WorkloadSpec{Kind: kind, Refs: 50, Iterations: 3, Rounds: 2},
			}
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
