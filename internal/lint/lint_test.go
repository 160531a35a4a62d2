package lint

import (
	"testing"
)

// TestModuleIsClean runs the full pass — every analyzer family — over the
// entire module. It is the gate: check.sh has no protolint stage, so this
// test is what keeps `protolint ./...` (`make lint`) exiting zero. Fixture
// packages live under testdata and are skipped by the walk exactly as the
// go tool would.
func TestModuleIsClean(t *testing.T) {
	dirs, err := ExpandPatterns([]string{"../../..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 10 {
		t.Fatalf("expected the module walk to find >=10 package dirs, got %v", dirs)
	}
	diags, err := Run(Config{Dirs: dirs})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
