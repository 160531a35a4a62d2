package machine

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/coherence"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/")

// wideGolden holds one line per machine: its name and the SHA-256 of its
// bus trace and final metrics.
const wideGolden = "testdata/wide_trace.golden"

// TestTraceGoldenAbove64PEs pins machines wider than one 64-bit holder
// mask byte for byte: RB and RWB(k=2) at 65, 128 and 130 PEs, bounded
// PDE applications, 64-line caches and the oracle on. Each run hashes
// every bus's trace lines and its Metrics(); the digests were recorded
// before these sizes snooped through a holder table, when every
// transaction was broadcast to every cache. The oracle, the final-state
// audit and the drain must hold as well. Skipped under the race detector,
// which makes the 130-PE runs slow; check.sh runs it without.
func TestTraceGoldenAbove64PEs(t *testing.T) {
	if raceEnabled {
		t.Skip("slow under the race detector; check.sh runs it without -race")
	}
	want := readWideGolden(t)
	var got []string
	for _, proto := range []coherence.Protocol{coherence.New(coherence.KindRB), coherence.NewRWB(2)} {
		for _, pes := range []int{65, 128, 130} {
			name := fmt.Sprintf("%s-%dpe", proto.Name(), pes)
			t.Run(name, func(t *testing.T) {
				digest := wideDigest(t, proto, pes)
				got = append(got, name+" "+digest)
				if !*update && want[name] != digest {
					t.Errorf("digest %s, want %q (%s)", digest, want[name], wideGolden)
				}
			})
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(wideGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wideGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// wideDigest runs one machine to completion and returns the hex SHA-256 of
// its bus trace lines and final metrics.
func wideDigest(t *testing.T, proto coherence.Protocol, pes int) string {
	t.Helper()
	layout := workload.DefaultLayout()
	agents := make([]workload.Agent, pes)
	for i := range agents {
		agents[i] = workload.MustApp(workload.PDEProfile(), layout, i, 1, 300)
	}
	m := MustNew(Config{Protocol: proto, CacheLines: 64, CheckConsistency: true}, agents)
	h := sha256.New()
	for i := 0; i < m.Buses().Len(); i++ {
		bank := i
		m.Buses().Bus(i).Trace = func(cycle uint64, r bus.Request, res bus.Result) {
			fmt.Fprintf(h, "bank%d cycle%d req%+v res%+v\n", bank, cycle, r, res)
		}
	}
	if _, err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if !m.Done() {
		t.Fatal("machine did not drain")
	}
	if err := m.AuditFinalCoherence(); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "metrics %+v\n", m.Metrics())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// readWideGolden parses the golden into name -> digest; with -update a
// missing file reads as empty.
func readWideGolden(t *testing.T) map[string]string {
	t.Helper()
	want := map[string]string{}
	f, err := os.Open(wideGolden)
	if err != nil {
		if *update {
			return want
		}
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, digest, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = digest
		}
	}
	return want
}
