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
