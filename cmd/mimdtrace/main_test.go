package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tool(args ...string) (stdout, stderr string, code int) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func golden(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

var capturable = []string{"pde", "qsort", "arrayinit", "hotspot", "random"}

// TestGeneratorGoldens: the trace bytes of every capturable generator,
// in both formats, are the ones the parent commit's tracegen wrote
// (-pes 2 -ops 200; testdata/<kind>.mct and .txt), whether they go to
// stdout or to -out.
func TestGeneratorGoldens(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range capturable {
		for ext, format := range map[string]string{".mct": "binary", ".txt": "text"} {
			want := golden(t, kind+ext)
			out, summary, code := tool("-workload", kind, "-pes", "2", "-ops", "200", "-format", format)
			if code != 0 || out != want {
				t.Errorf("%s %s to stdout: exit %d, trace differs from the golden", kind, format, code)
			}
			if !strings.HasPrefix(summary, "records    ") {
				t.Errorf("%s %s to stdout: summary not on stderr: %q", kind, format, summary)
			}
			path := filepath.Join(dir, kind+ext)
			fileSummary, errs, code := tool("-workload", kind, "-pes", "2", "-ops", "200", "-format", format, "-out", path)
			if got, _ := os.ReadFile(path); code != 0 || errs != "" || string(got) != want {
				t.Errorf("%s %s to -out: exit %d, stderr %q, trace differs from the golden", kind, format, code, errs)
			}
			if fileSummary != summary {
				t.Errorf("%s %s: summary with -out differs:\n%s---\n%s", kind, format, fileSummary, summary)
			}
		}
	}
}

// TestFormatIsSniffed: a file's summary, per-PE table and curves are the
// same whichever format it is in and equal the generator's own pass,
// and -convert writes the opposite format, byte for byte the other
// golden.
func TestFormatIsSniffed(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range capturable {
		live, _, _ := tool("-workload", kind, "-pes", "2", "-ops", "200", "-out", filepath.Join(dir, "live"), "-perpe", "-misscurve")
		for ext, other := range map[string]string{".mct": ".txt", ".txt": ".mct"} {
			out, errs, code := tool("-perpe", "-misscurve", filepath.Join("testdata", kind+ext))
			if code != 0 || errs != "" {
				t.Fatalf("%s%s: exit %d, stderr %q", kind, ext, code, errs)
			}
			if out != live {
				t.Errorf("%s%s: summary differs from the generator's:\n%s---\n%s", kind, ext, out, live)
			}
			converted := filepath.Join(dir, kind+other)
			out, _, code = tool("-convert", converted, filepath.Join("testdata", kind+ext))
			if got, _ := os.ReadFile(converted); code != 0 || string(got) != golden(t, kind+other) {
				t.Errorf("%s%s -convert: exit %d, output differs from %s%s", kind, ext, code, kind, other)
			}
			from, to := "binary", "text"
			if ext == ".txt" {
				from, to = to, from
			}
			if want := "converted  " + from + " -> " + to + " (" + converted + ")\n"; !strings.HasSuffix(out, want) {
				t.Errorf("%s%s -convert: summary ends %q, want %q", kind, ext, out[strings.LastIndex(out, "converted"):], want)
			}
		}
	}
}

// TestSummaryGolden: the parent's `tracestat -perpe` output for this
// file, and with -misscurve the per-PE and machine-wide curves
// (testdata/random.misscurve.golden), whose machine-wide refs are every
// read, write and test-set of the summary.
func TestSummaryGolden(t *testing.T) {
	out, _, code := tool("-perpe", filepath.Join("testdata", "random.mct"))
	want := `records    402
PEs        2
addresses  198 distinct
reads      264
writes     132
test-sets  4
computes   0
halts      2
class shared   400 (100.0%)

   PE   records     reads    writes test-sets  computes  halts  addresses
    0       201       134        63         3         0      1        131
    1       201       130        69         1         0      1        145
`
	if code != 0 || out != want {
		t.Errorf("exit %d, summary:\n%s", code, out)
	}
	curves := golden(t, "random.misscurve.golden")
	if !strings.HasPrefix(curves, want) || !strings.Contains(curves, "machine (all PEs): 400 refs,") { // 264 + 132 + 4
		t.Fatal("random.misscurve.golden does not extend the summary or miscounts the references")
	}
	if out, _, code := tool("-perpe", "-misscurve", filepath.Join("testdata", "random.mct")); code != 0 || out != curves {
		t.Errorf("-misscurve: exit %d, output:\n%s", code, out)
	}
}

func TestBadCommandLines(t *testing.T) {
	trace := filepath.Join("testdata", "pde.mct")
	for _, args := range [][]string{
		{},
		{trace, trace},
		{"-workload", "pde", trace},
		{"-workload", "pde", "-convert", "x"},
		{"-out", "x", trace},
		{"-workload", "pde", "-format", "json"},
		{"-text", trace},
	} {
		if out, errs, code := tool(args...); code != 2 || out != "" || errs == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want a usage error", args, code, out, errs)
		}
	}
	for _, args := range [][]string{
		{"-workload", "spinlock-tts"},
		{"-workload", "barrier"},
		{"-workload", "frobnicate"},
		{filepath.Join("testdata", "missing.mct")},
	} {
		if out, errs, code := tool(args...); code != 1 || out != "" || !strings.HasPrefix(errs, "mimdtrace: ") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q", args, code, out, errs)
		}
	}
	corrupt := filepath.Join(t.TempDir(), "cut.mct")
	if err := os.WriteFile(corrupt, []byte(golden(t, "pde.mct")[:100]), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, errs, code := tool(corrupt); code != 1 || !strings.Contains(errs, "byte offset") {
		t.Errorf("truncated trace: exit %d, stderr %q", code, errs)
	}
}
