package lint

import (
	"os"
	"path/filepath"
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
		"testdata/clean", "testdata/determinism", "testdata/ignorescope",
		"testdata/phase",
	}
	if len(dirs) != len(want) {
		t.Fatalf("ExpandPatterns = %v, want %v", dirs, want)
	}
	for i := range want {
		if dirs[i] != want[i] {
			t.Fatalf("ExpandPatterns = %v, want %v", dirs, want)
		}
	}
	if dirs, err := ExpandPatterns([]string{"testdata/clean"}); err == nil {
		t.Errorf("a pattern without /... expanded to %v, want an error", dirs)
	}
}

// TestModuleIsClean runs the full pass — both analyzers — over the entire
// module. It is the gate (check.sh stage 4; `make lint` runs it alone),
// and the package has no other front end. Fixture packages live under
// testdata and are skipped by the walk exactly as the go tool would.
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

// TestRunLoadError: a package that does not parse, or parses but does
// not type-check, is an error from Run, never an empty (clean) result.
func TestRunLoadError(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"unparsable", "package broken\n\nfunc {\n"},
		{"untypeable", "package broken\n\nvar X = undefinedIdentifier\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte(tc.src), 0o644); err != nil {
				t.Fatal(err)
			}
			diags, err := Run(Config{Dirs: []string{dir}})
			if err == nil {
				t.Fatalf("Run on a %s package returned no error (%d diagnostics)", tc.name, len(diags))
			}
		})
	}
}
