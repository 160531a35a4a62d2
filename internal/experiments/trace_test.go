package experiments

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/mrc"
	"repro/internal/trace"
	"repro/internal/workload"
)

// syntheticSet builds the non-reactive synthetic workload the identity
// checks capture and replay: App agents ignore operation results, so a
// standalone capture emits exactly the stream a live run consumes.
func syntheticSet(pes, refs int, seed uint64) func() []workload.Agent {
	layout := workload.DefaultLayout()
	prof := workload.PDEProfile()
	return func() []workload.Agent {
		as := make([]workload.Agent, pes)
		for i := range as {
			as[i] = workload.MustApp(prof, layout, i, seed, refs)
		}
		return as
	}
}

func captureSet(t testing.TB, agents func() []workload.Agent, refs int) []trace.Record {
	t.Helper()
	var recs []trace.Record
	for pe, a := range agents() {
		recs = append(recs, trace.Capture(pe, a, refs+1)...)
	}
	return recs
}

// TestTraceReplayMatchesSynthetic is the acceptance identity: a trace
// captured from a synthetic workload, replayed through WorkloadMatrix,
// renders byte-identically to the live synthetic run.
func TestTraceReplayMatchesSynthetic(t *testing.T) {
	const pes, refs = 3, 600
	agents := syntheticSet(pes, refs, 5)
	recs := captureSet(t, agents, refs)
	replay := trace.Split(recs)
	if n := len(replay()); n != pes {
		t.Fatalf("capture covered %d PEs, want %d", n, pes)
	}
	max := traceMaxCycles(len(recs))
	var synProf, repProf mrc.Collector
	syn, err := WorkloadMatrix(Params{Profile: &synProf}, "trace-identity", "Identity", "note", 64, max, agents)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := WorkloadMatrix(Params{Profile: &repProf}, "trace-identity", "Identity", "note", 64, max, replay)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"plain", "csv", "markdown"} {
		if a, b := syn.Render(format), rep.Render(format); a != b {
			t.Fatalf("replay table differs from synthetic run (%s):\n%s\n---\n%s", format, a, b)
		}
	}
	// The caches saw the same reference streams, so the online miss-ratio
	// curves of the replay equal the live run's, per protocol and per PE.
	synCaps, repCaps := synProf.Captures(), repProf.Captures()
	if len(synCaps) == 0 || len(synCaps) != len(repCaps) {
		t.Fatalf("%d live captures, %d replay captures", len(synCaps), len(repCaps))
	}
	for i := range synCaps {
		a, b := synCaps[i].Set.Docs(mrc.DefaultSizes()), repCaps[i].Set.Docs(mrc.DefaultSizes())
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: replay curves differ from the live run's", synCaps[i].Shape)
		}
	}
}

// capturedTraceBytes records a short synthetic run in the binary trace
// format.
func capturedTraceBytes(t *testing.T) []byte {
	t.Helper()
	recs := captureSet(t, syntheticSet(2, 200, 9), 200)
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceFlag drives the -trace flag the sweep, serve and router CLIs
// share: each occurrence registers its file at parse time, and a
// malformed, unreadable or duplicate argument fails the parse.
func TestTraceFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	if err := os.WriteFile(path, capturedTraceBytes(t), 0o644); err != nil {
		t.Fatal(err)
	}
	parse := func(args ...string) (*TraceFlag, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := new(TraceFlag)
		fs.Var(f, "trace", "")
		return f, fs.Parse(args)
	}

	f, err := parse("-trace", "flagrun="+path, "-trace", "flagrun-b="+path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := f.String(), "flagrun="+path+",flagrun-b="+path; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	for _, id := range []string{"trace-flagrun", "trace-flagrun-b"} {
		if _, err := ByID(id); err != nil {
			t.Fatalf("%s not registered: %v", id, err)
		}
	}

	for _, bad := range []string{
		"no-equals", "=" + path, "noname=", // not name=path
		"missing=" + path + ".absent", // unreadable file
		"flagrun=" + path,             // duplicate name
	} {
		if f, err := parse("-trace", bad); err == nil || len(*f) != 0 {
			t.Errorf("-trace %q: err = %v, accepted = %v; want a parse error and nothing accepted", bad, err, *f)
		}
	}
}

// TestRegisterTrace exercises the operator-facing registration path:
// decode, salt, registry entry, replay run, and the error (not panic)
// contract for bad input.
func TestRegisterTrace(t *testing.T) {
	raw := capturedTraceBytes(t)

	if err := RegisterTrace("goldrun", raw); err != nil {
		t.Fatal(err)
	}
	e, err := ByID("trace-goldrun")
	if err != nil {
		t.Fatal(err)
	}
	if e.Salt != TraceSalt(raw) || e.Salt == "" {
		t.Fatalf("Salt = %q, want %q", e.Salt, TraceSalt(raw))
	}
	if e.Axes.Seed || e.Axes.Scale {
		t.Fatalf("trace replay declared axes %+v; it is deterministic", e.Axes)
	}
	tb, err := e.Run(Params{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(tb.Rows), len(coherence.Kinds()); got != want {
		t.Fatalf("replay table has %d rows, want one per protocol (%d)", got, want)
	}
	if !strings.Contains(tb.Note, e.Salt) {
		t.Fatalf("table note %q does not cite the content salt", tb.Note)
	}

	for name, in := range map[string][]byte{
		"goldrun":  raw,                      // duplicate
		"Bad Name": raw,                      // not kebab-case
		"garbage":  []byte("not a trace\n"),  // undecodable
		"empty":    []byte("# comments\n\n"), // decodes to zero records
	} {
		if err := RegisterTrace(name, in); err == nil {
			t.Errorf("RegisterTrace(%q) accepted", name)
		}
	}
	// Same bytes, different name: fine, and the salt matches.
	if err := RegisterTrace("goldrun-b", raw); err != nil {
		t.Fatal(err)
	}
	b, err := ByID("trace-goldrun-b")
	if err != nil {
		t.Fatal(err)
	}
	if b.Salt != e.Salt {
		t.Fatalf("same bytes produced different salts: %q vs %q", b.Salt, e.Salt)
	}
}
