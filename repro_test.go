package repro

import (
	"strings"
	"testing"
)

// The facade tests exercise the public API exactly as a caller outside
// the module would.

func TestFacadeProtocols(t *testing.T) {
	names := map[string]Protocol{
		"rb": RB(), "rwb": RWB(2), "goodman": Goodman(),
		"writethrough": WriteThrough(), "cmstar": CmStar(), "nocache": NoCache(),
		"illinois": Illinois(),
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("%s constructor returned %q", want, p.Name())
		}
		byName, err := ProtocolByName(want)
		if err != nil || byName.Name() != want {
			t.Errorf("ProtocolByName(%q): %v", want, err)
		}
	}
	if len(ProtocolNames()) != 8 {
		t.Errorf("ProtocolNames() = %v", ProtocolNames())
	}
	if _, err := ProtocolByName("mesi"); err == nil {
		t.Error("unknown protocol resolved")
	}
}

func TestFacadeMachineRoundTrip(t *testing.T) {
	agents := []Agent{
		NewArrayInit(0, 32),
		NewHotspot(100, 20),
		NewRandom(200, 16, 100, 0.4, 0.1, 7),
	}
	m, err := NewMachine(MachineConfig{Protocol: RWB(2), CacheLines: 64, CheckConsistency: true}, agents)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if !m.Done() {
		t.Fatal("machine did not drain")
	}
	mt := m.Metrics()
	if mt.TotalRefs() == 0 || mt.Bus.Transactions() == 0 {
		t.Fatalf("metrics empty: %+v", mt)
	}
	if err := m.VerifyFinalMemory(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSpinlock(t *testing.T) {
	s1 := NewSpinlock(SpinlockConfig{Lock: 50, Strategy: StrategyTTS, Iterations: 5})
	s2 := NewSpinlock(SpinlockConfig{Lock: 50, Strategy: StrategyTS, Iterations: 5})
	m, err := NewMachine(MachineConfig{Protocol: RB(), CheckConsistency: true}, []Agent{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if s1.Acquisitions()+s2.Acquisitions() != 10 {
		t.Fatalf("acquisitions = %d + %d", s1.Acquisitions(), s2.Acquisitions())
	}
}

func TestFacadeApps(t *testing.T) {
	layout := DefaultLayout()
	for _, prof := range []AppProfile{PDEProfile(), QuicksortProfile()} {
		app, err := NewApp(prof, layout, 0, 1, 50)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMachine(MachineConfig{Protocol: CmStar(), CheckConsistency: true}, []Agent{app})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(100_000); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(Experiments()) < 10 {
		t.Fatalf("only %d experiments registered", len(Experiments()))
	}
	tb, err := RunExperiment("fig6-2", ExperimentParams{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.Plain(), "No Bus Traffic") {
		t.Fatal("fig6-2 lost its headline row")
	}
	if _, err := RunExperiment("unknown", ExperimentParams{}); err == nil {
		t.Fatal("unknown experiment resolved")
	}
}

func TestFacadeCheckProtocol(t *testing.T) {
	for _, p := range []Protocol{RB(), RWB(2), Goodman()} {
		res, err := CheckProtocol(p, 3)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.States == 0 {
			t.Fatalf("%s: no states explored", p.Name())
		}
	}
}

func TestFacadeTrace(t *testing.T) {
	a := TraceOf(Op{}, Op{})
	if a == nil {
		t.Fatal("TraceOf returned nil")
	}
}

func TestFacadeHierMachine(t *testing.T) {
	agents := [][]Agent{
		{NewRandom(0, 16, 50, 0.3, 0, 1)},
		{NewRandom(0, 16, 50, 0.3, 0, 2)},
	}
	m, err := NewHierMachine(HierConfig{Clusters: 2, PEsPerCluster: 1, CheckConsistency: true}, agents)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if !m.Done() {
		t.Fatal("hier machine did not drain")
	}
	if m.Metrics().FilterRatio() < 0 {
		t.Fatal("metrics broken")
	}
}
