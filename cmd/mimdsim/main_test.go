package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The goldens under testdata/ were recorded from the binaries of the
// commit before flags and -config shared one resolver; -update
// re-blesses them after an intentional change.
var update = flag.Bool("update", false, "rewrite golden files")

// sim runs the command in-process.
func sim(args ...string) (stdout, stderr string, code int) {
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

var kinds = []string{"pde", "qsort", "spinlock-ts", "spinlock-tts", "arrayinit",
	"hotspot", "random", "producer-consumer", "barrier"}

// TestWorkloadGoldens: every workload kind under RB and RWB prints the
// bytes the parent printed, from the flag form and from its -config
// twin alike. (The parent reached barrier through -config only.)
func TestWorkloadGoldens(t *testing.T) {
	dir := t.TempDir()
	for _, proto := range []string{"rb", "rwb"} {
		for _, kind := range kinds {
			name := kind + "-" + proto
			t.Run(name, func(t *testing.T) {
				out, errs, code := sim("-protocol", proto, "-workload", kind,
					"-pes", "4", "-refs", "2000", "-iters", "10", "-v", "-latency")
				if code != 0 || errs != "" {
					t.Fatalf("flags: exit %d, stderr %q", code, errs)
				}
				checkGolden(t, name, out)

				twin := filepath.Join(dir, name+".json")
				doc := fmt.Sprintf(`{"protocol": %q, "pes": 4,
					"workload": {"kind": %q, "refs": 2000, "iterations": 10, "ts_frac": 0.02}}`, proto, kind)
				if err := os.WriteFile(twin, []byte(doc), 0o644); err != nil {
					t.Fatal(err)
				}
				// Machine and workload flags beside -config are replaced by the file.
				fromConfig, errs, code := sim("-config", twin, "-v", "-latency", "-pes", "9", "-workload", "hotspot")
				if code != 0 || errs != "" {
					t.Fatalf("-config: exit %d, stderr %q", code, errs)
				}
				if fromConfig != out {
					t.Errorf("-config twin differs from the flag form:\n%s---\n%s", fromConfig, out)
				}
			})
		}
	}
}

// TestUnusableDescriptionIsUsageError: a run description Validate
// rejects exits 2 with one line on stderr and nothing on stdout — the
// RWB threshold used to panic (k<2) or wrap through uint8 (k>255) from
// the flags and run k=2 silently from JSON.
func TestUnusableDescriptionIsUsageError(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "k1.json")
	if err := os.WriteFile(bad, []byte(`{"protocol": "rwb", "rwb_threshold": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-protocol", "rwb", "-k", "0"},
		{"-protocol", "rwb", "-k", "1"},
		{"-protocol", "rwb", "-k", "258"},
		{"-config", bad},
		{"-workload", "frobnicate"},
		{"-protocol", "mesi"},
		{"-pes", "0"},
	} {
		out, errs, code := sim(args...)
		if code != 2 || out != "" || strings.Count(errs, "\n") != 1 || !strings.HasPrefix(errs, "mimdsim: ") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one mimdsim: line", args, code, out, errs)
		}
	}
	if out, _, code := sim("-protocol", "rwb", "-k", "3", "-refs", "200"); code != 0 || !strings.HasPrefix(out, "protocol       rwb\n") {
		t.Errorf("-k 3: exit %d, stdout %q", code, out)
	}
}

// TestTraceReplayEitherFormat: -trace sniffs the format, and replaying
// a capture of a non-reactive generator prints what the live run prints.
func TestTraceReplayEitherFormat(t *testing.T) {
	live, errs, code := sim("-workload", "pde", "-pes", "2", "-refs", "200", "-v")
	if code != 0 {
		t.Fatalf("live run: exit %d, stderr %q", code, errs)
	}
	for _, file := range []string{"pde.mct", "pde.txt"} {
		// The capture mimdtrace's own test pins: -workload pde -pes 2 -ops 200.
		out, errs, code := sim("-trace", filepath.Join("..", "mimdtrace", "testdata", file), "-v")
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", file, code, errs)
		}
		if out != live {
			t.Errorf("%s replay differs from the live run:\n%s---\n%s", file, out, live)
		}
	}
	if _, errs, code := sim("-trace", filepath.Join("testdata", "missing.mct")); code != 1 || errs == "" {
		t.Errorf("missing trace: exit %d, stderr %q", code, errs)
	}
}

// TestConfigBusesPrintsPerBus: the per-bus line follows the built
// machine, not the -buses flag.
func TestConfigBusesPrintsPerBus(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b2.json")
	if err := os.WriteFile(path, []byte(`{"buses": 2, "workload": {"refs": 500}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fromConfig, _, code := sim("-config", path)
	if code != 0 || !strings.Contains(fromConfig, "\nper-bus txns   [") {
		t.Fatalf("-config with 2 buses: exit %d, no per-bus line in:\n%s", code, fromConfig)
	}
	if fromFlags, _, _ := sim("-buses", "2", "-refs", "500"); fromFlags != fromConfig {
		t.Errorf("flag form differs:\n%s---\n%s", fromFlags, fromConfig)
	}
}
