package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the JSON golden file")

const fixtures = "../../internal/lint/testdata"

// TestExitCodes pins the CLI contract check.sh depends on: 0 clean,
// 1 findings, 2 load/parse error — a broken package and a real finding
// must be distinguishable.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean", []string{filepath.Join(fixtures, "clean")}, 0},
		{"findings", []string{filepath.Join(fixtures, "exhaustive")}, 1},
		{"load error", []string{"testdata/broken"}, 2},
		{"bad flag", []string{"-nonsense"}, 2},
		{"bad format", []string{"-format=yaml", filepath.Join(fixtures, "clean")}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Errorf("run(%v) = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					tc.args, got, tc.want, stdout.String(), stderr.String())
			}
		})
	}
}

// TestJSONGolden pins the machine-readable output: one object per
// finding, including suppressed ones (suppressed findings do not affect
// the exit code).
func TestJSONGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-format=json", filepath.Join(fixtures, "ignorescope")}
	if got := run(args, &stdout, &stderr); got != 1 {
		t.Fatalf("run(%v) = %d, want 1 (one unsuppressed finding)\nstderr:\n%s", args, got, stderr.String())
	}
	golden := filepath.Join("testdata", "golden", "ignorescope.jsonl")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (re-bless with -update): %v", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("JSON output drifted from golden (re-bless with -update)\ngot:\n%s\nwant:\n%s", stdout.Bytes(), want)
	}
}
