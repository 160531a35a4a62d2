package profiling

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
)

// TestStart: both profiles are written and non-empty; a CPU profile
// whose file cannot be created is an error that leaves no profile
// running; empty paths start nothing.
func TestStart(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	sink := 0
	for i := 0; i < 1_000_000; i++ {
		sink += i * i
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: not written or empty (%v)", filepath.Base(path), err)
		}
	}

	if _, err := Start(filepath.Join(dir, "missing", "cpu.out"), ""); err == nil {
		t.Fatal("Start with an uncreatable cpuPath returned no error")
	}
	stop, err = Start(cpu, "")
	if err != nil {
		t.Fatalf("Start after a failed one: %v (a CPU profile was left running)", err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	stop, err = Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatalf("empty paths left a CPU profile running: %v", err)
	}
	pprof.StopCPUProfile()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
