package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The goldens under testdata/ were recorded from the parent commit's
// binaries: only-<format> is what both `paperrepro -only fig6-1` +
// `-only table1-1` and `sweep -experiments fig6-1,table1-1` printed,
// list is `sweep -list` (whose axes column -list took over). -update
// re-blesses them after an intentional change.
var update = flag.Bool("update", false, "rewrite golden files")

func repro(args ...string) (stdout, stderr string, code int) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden:\n--- got\n%s--- want\n%s", name, got, want)
	}
}

func TestOnlyGoldens(t *testing.T) {
	for _, format := range []string{"plain", "markdown", "csv"} {
		out, errs, code := repro("-only", "fig6-1,table1-1", "-format", format, "-quiet")
		if code != 0 || errs != "" {
			t.Fatalf("%s: exit %d, stderr %q", format, code, errs)
		}
		checkGolden(t, "only-"+format, out)
	}
}

func TestListGolden(t *testing.T) {
	out, _, code := repro("-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	checkGolden(t, "list", out)
}

// TestWorkerCountAndCacheDoNotChangeOutput: the tables are the same
// bytes at one worker and at four, cold and warm, and the summary on
// stderr says the warm run executed nothing.
func TestWorkerCountAndCacheDoNotChangeOutput(t *testing.T) {
	cache := t.TempDir()
	args := []string{"-only", "fig6-1,table1-1,fig7-1", "-seeds", "1,2", "-cache-dir", cache}
	cold, _, code := repro(append(args, "-j", "4")...)
	if code != 0 {
		t.Fatalf("cold run: exit %d", code)
	}
	warm, summary, code := repro(append(args, "-j", "1")...)
	if code != 0 || warm != cold {
		t.Fatalf("warm -j 1 run (exit %d) differs from the cold -j 4 run:\n%s---\n%s", code, warm, cold)
	}
	fields := strings.Fields(summary[strings.LastIndex(summary, "total"):])
	if len(fields) < 4 || fields[2] != "0" || fields[1] != fields[3] {
		t.Errorf("warm summary total = %v, want every job cached", fields)
	}
}

// TestOnlyRepeatedID: an id named twice in -only runs and prints once.
func TestOnlyRepeatedID(t *testing.T) {
	out, summary, code := repro("-only", "fig7-1,fig7-1", "-seeds", "1,2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, summary)
	}
	once, _, _ := repro("-only", "fig7-1", "-seeds", "1,2")
	if out != once {
		t.Errorf("-only fig7-1,fig7-1 printed\n%s---\nwant what -only fig7-1 prints\n%s", out, once)
	}
	rows := 0
	for _, line := range strings.Split(summary, "\n") {
		if strings.HasPrefix(line, "fig7-1 ") {
			rows++
		}
	}
	if rows != 1 {
		t.Errorf("summary has %d fig7-1 rows, want 1:\n%s", rows, summary)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-only", "no-such-artifact"},
		{"-only", "fig6-1,"},
		{"-seeds", "1,x"},
		{"-seeds", ","},
		{"-dot", "mesi"},
		{"-scale", "-1"},
	} {
		if out, errs, code := repro(args...); code != 1 || out != "" || errs == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q", args, code, out, errs)
		}
	}
	if _, _, code := repro("-seed", "7"); code != 2 {
		t.Errorf("-seed (folded into -seeds) parsed: exit %d", code)
	}
}
