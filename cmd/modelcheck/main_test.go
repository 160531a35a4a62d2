package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func modelcheck(args ...string) (stdout, stderr string, code int) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

// TestAllGolden pins the reachable-state and transition counts of the
// Section 4 product machine for every protocol at the default sizes,
// n = 2…5. testdata/all.golden is the stdout of `modelcheck -all` at the
// commit before the protocols became tables: a table edit that changes
// the reachable space fails here with a diff.
func TestAllGolden(t *testing.T) {
	out, errs, code := modelcheck("-all")
	if code != 0 || errs != "" {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	want, err := os.ReadFile("testdata/all.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("modelcheck -all differs from the golden:\n--- got\n%s--- want\n%s", out, want)
	}
}

// TestDefaultIsRBAndRWB: no flags checks the paper's two schemes, which
// are the first eight lines of the -all sweep.
func TestDefaultIsRBAndRWB(t *testing.T) {
	out, _, code := modelcheck()
	all, err := os.ReadFile("testdata/all.golden")
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.SplitAfter(string(all), "\n"); code != 0 || out != strings.Join(lines[:8], "") {
		t.Errorf("exit %d, output:\n%s", code, out)
	}
}

// TestExplicitCmStarFails: -all skips the class-dependent Cm* table, but
// an explicit request runs it — and the transparent product machine,
// which has several PEs share an address in a class Cm* caches, as its
// software never would, finds the violation.
func TestExplicitCmStarFails(t *testing.T) {
	out, _, code := modelcheck("-protocol", "cmstar", "-n", "2")
	if code != 1 || !strings.Contains(out, "FAIL") {
		t.Errorf("exit %d, output:\n%s", code, out)
	}
}

// TestUsageErrors: an unusable command line is one line on stderr and
// exit 2, and nothing runs. A stray positional argument used to end flag
// parsing silently (`modelcheck bogus -n 2` ran the default sweep), and an
// unknown protocol used to exit 1 like a failed check. So did a size the
// product machine does not take (`rb N=7 FAIL: ...`), while `-n 0` and
// negatives ran the default sizes and -all dropped a -protocol beside it.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args    []string
		mention string
		oneLine bool // flag's own parse errors also print the defaults
	}{
		{[]string{"bogus", "-n", "2"}, `"bogus"`, true},
		{[]string{"-protocol", "mesi"}, `"mesi"`, true},
		{[]string{"-n", "two"}, `"two"`, false},
		{[]string{"-nosuchflag"}, "nosuchflag", false},
		{[]string{"-protocol", "rb", "-n", "7"}, "7", true},
		{[]string{"-n", "-3"}, "-3", true},
		{[]string{"-n", "0"}, "0", true},
		{[]string{"-all", "-protocol", "rb"}, "-protocol", true},
	} {
		out, errs, code := modelcheck(c.args...)
		if code != 2 || out != "" {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no output", c.args, code, out)
		}
		if !strings.Contains(errs, c.mention) || c.oneLine && strings.Count(errs, "\n") != 1 {
			t.Errorf("%v: stderr %q", c.args, errs)
		}
	}
}
