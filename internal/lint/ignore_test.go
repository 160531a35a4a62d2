package lint

import "testing"

func TestIgnoreScopeFixture(t *testing.T) {
	// CPUStep's line carries both a phaseaudit finding (CPU phase writes
	// a bus-owned field) and a determinism finding (time.Now). The scoped
	// directive suppresses only the former. LegacyWaiver's unscoped
	// directive suppresses both.
	expectDiags(t, runOn(t, "testdata/ignorescope"), [][2]string{
		{"determinism", "time.Now: wall-clock input"},
	})
}

func TestIncludeSuppressed(t *testing.T) {
	diags, err := Run(Config{
		Dirs:              []string{"testdata/ignorescope"},
		IncludeSuppressed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		analyzer   string
		suppressed bool
	}{
		{"phaseaudit", true},   // CPUStep: scoped waiver
		{"determinism", false}, // CPUStep: not covered by the scoped waiver
		{"phaseaudit", true},   // LegacyWaiver: unscoped waiver
		{"determinism", true},  // LegacyWaiver: unscoped waiver
	}
	if len(diags) != len(want) {
		for _, d := range diags {
			t.Logf("  %s (suppressed=%v)", d, d.Suppressed)
		}
		t.Fatalf("got %d diagnostics, want %d", len(diags), len(want))
	}
	for i, w := range want {
		if diags[i].Analyzer != w.analyzer || diags[i].Suppressed != w.suppressed {
			t.Errorf("diag %d: got (%s, suppressed=%v), want (%s, suppressed=%v)",
				i, diags[i].Analyzer, diags[i].Suppressed, w.analyzer, w.suppressed)
		}
	}
}
