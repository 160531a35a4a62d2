package lint

import (
	"strings"
	"testing"
)

// runOn lints one fixture directory.
func runOn(t *testing.T, dir string) []Diagnostic {
	t.Helper()
	diags, err := Run(Config{Dirs: []string{dir}})
	if err != nil {
		t.Fatalf("Run(%s): %v", dir, err)
	}
	return diags
}

// expectDiags asserts that diags is exactly the expected (analyzer,
// message substring) list, in order.
func expectDiags(t *testing.T, diags []Diagnostic, want [][2]string) {
	t.Helper()
	for _, d := range diags {
		t.Logf("  %s", d)
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d", len(diags), len(want))
	}
	for i, w := range want {
		if diags[i].Analyzer != w[0] {
			t.Errorf("diag %d: analyzer = %q, want %q", i, diags[i].Analyzer, w[0])
		}
		if !strings.Contains(diags[i].Message, w[1]) {
			t.Errorf("diag %d: message %q does not contain %q", i, diags[i].Message, w[1])
		}
	}
}

func TestExhaustiveFixture(t *testing.T) {
	// The fixture seeds two violations: a switch over coherence.State
	// missing five states, and a switch over a local enum missing one
	// constant. Default-covered, fully-covered, ignore-waived and
	// non-constant-case switches must stay silent, as must the sentinel
	// constant numMoods.
	expectDiags(t, runOn(t, "testdata/exhaustive"), [][2]string{
		{"exhaustive", "switch over coherence.State is not exhaustive"},
		{"exhaustive", "missing Angry"},
	})
}

func TestExhaustiveFlagsMissingStates(t *testing.T) {
	diags := runOn(t, "testdata/exhaustive")
	if len(diags) == 0 {
		t.Fatal("no diagnostics")
	}
	msg := diags[0].Message
	for _, state := range []string{"DirtyState", "FirstWrite", "NotPresent", "Reserved", "Valid"} {
		if !strings.Contains(msg, state) {
			t.Errorf("missing-state list lacks %s: %s", state, msg)
		}
	}
	if strings.Contains(msg, "numStates") {
		t.Errorf("sentinel numStates demanded by %s", msg)
	}
}

func TestCleanFixture(t *testing.T) {
	if diags := runOn(t, "testdata/clean"); len(diags) != 0 {
		t.Fatalf("clean fixture produced %d diagnostics: %v", len(diags), diags)
	}
}

func TestExpandPatterns(t *testing.T) {
	dirs, err := ExpandPatterns([]string{"testdata/..."})
	if err != nil {
		t.Fatal(err)
	}
	// testdata under the *root* of a walk is not skipped (only nested
	// testdata dirs are), so every fixture package appears.
	want := []string{
		"testdata/clean", "testdata/determinism", "testdata/exhaustive",
		"testdata/ignorescope", "testdata/phase",
	}
	if len(dirs) != len(want) {
		t.Fatalf("ExpandPatterns = %v, want %v", dirs, want)
	}
	for i := range want {
		if dirs[i] != want[i] {
			t.Fatalf("ExpandPatterns = %v, want %v", dirs, want)
		}
	}
}
