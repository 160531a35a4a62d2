// Trace-driven workloads: a captured reference trace (internal/trace)
// registered as a first-class experiment. The registered experiment runs
// the replay under every coherence protocol through the same
// Params.Machine chokepoint as the synthetic experiments, so trace
// workloads flow through sweeps, fault campaigns and cluster routing
// unchanged — and a trace captured from a non-reactive
// synthetic run reproduces that run's table byte for byte.

package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"

	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

// WorkloadMatrix runs one agent set under every coherence protocol and
// tabulates the paper's figures of merit per protocol. It is the shared
// table shape behind every trace-driven experiment; running it twice
// with agent sets that emit the same reference streams yields
// byte-identical tables, which is how trace replays are validated
// against the synthetic runs they were captured from.
//
// agents is called once per protocol and must build a fresh set each
// time. maxCycles bounds each run; the machine must drain within it.
func WorkloadMatrix(p Params, id, title, note string, cacheLines int, maxCycles uint64, agents func() []workload.Agent) (*Table, error) {
	p = p.withDefaults()
	t := &report.Table{
		ID:      id,
		Title:   title,
		Columns: []string{"Protocol", "Refs", "Cycles", "Miss %", "Inval/1k Refs", "Bus/Ref"},
		Note:    note,
	}
	for _, k := range coherence.Kinds() {
		m, err := p.Machine(fmt.Sprintf("%s/lines=%d/%s", id, cacheLines, k), machine.Config{
			Protocol:   coherence.New(k),
			CacheLines: cacheLines,
		}, agents())
		if err != nil {
			return nil, err
		}
		if _, err := m.Run(maxCycles); err != nil {
			return nil, err
		}
		if !m.Done() {
			return nil, fmt.Errorf("%s: machine did not drain under %s in %d cycles", id, k, maxCycles)
		}
		mt := m.Metrics()
		var refs, hits, invals uint64
		for _, cs := range mt.Caches {
			refs += cs.Reads + cs.Writes
			hits += cs.ReadHits + cs.WriteHits
			invals += cs.InvalidatedBy
		}
		missPct, invalPerK := 0.0, 0.0
		if refs > 0 {
			missPct = 100 * (1 - float64(hits)/float64(refs))
			invalPerK = 1000 * float64(invals) / float64(refs)
		}
		t.AddRowf(k, mt.TotalRefs(), mt.Cycles, missPct, invalPerK, mt.BusPerRef())
	}
	return t, nil
}

// TraceSalt is the content salt for a trace experiment: the truncated
// SHA-256 of the raw trace bytes. Folding it into the experiment (and
// thus every sweep/serve cache key) means two deployments registering
// different traces under the same name can never alias a memoized
// artifact.
func TraceSalt(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}

// traceCacheLines is the cache geometry trace experiments replay under:
// the paper's mid-sized configuration.
const traceCacheLines = 256

// traceMaxCycles bounds a replay run generously: every record may cost a
// full bus transaction with retries under contention.
func traceMaxCycles(records int) uint64 {
	return uint64(records)*400 + 100_000
}

// RegisterTrace registers the trace in raw (MCT1 binary or text; see
// internal/trace) as experiment "trace-<name>". The experiment replays
// the trace under every coherence protocol via WorkloadMatrix. Replay is
// deterministic, so the experiment declares no seed/scale axes; the
// content hash of raw becomes the experiment Salt. Unlike the compiled-in
// registrations this is driven by operator input (a -trace flag), so
// invalid names, undecodable traces and duplicates are errors, not
// panics.
func RegisterTrace(name string, raw []byte) error {
	id := "trace-" + name
	if !validID(id) {
		return fmt.Errorf("experiments: trace name %q is not stable kebab-case", name)
	}
	for _, e := range registry {
		if e.ID == id {
			return fmt.Errorf("experiments: %s already registered", id)
		}
	}
	recs, err := trace.Decode(raw)
	if err != nil {
		return fmt.Errorf("experiments: trace %q: %w", name, err)
	}
	if len(recs) == 0 {
		return fmt.Errorf("experiments: trace %q is empty", name)
	}
	agents := trace.Split(recs)
	salt := TraceSalt(raw)
	note := fmt.Sprintf("replay of trace %q: %d records, %d PEs, content %s", name, len(recs), len(agents()), salt)
	register(Experiment{
		ID:      id,
		Title:   fmt.Sprintf("Trace Replay: %s", name),
		Axes:    Axes{}, // replay is seed- and scale-independent
		Version: 1,
		Salt:    salt,
		Chart:   &ChartSpec{Labels: []int{0}, Value: 5}, // bus/ref per protocol
		Run: func(p Params) (*Table, error) {
			return WorkloadMatrix(p, id, fmt.Sprintf("Trace Replay: %s", name), note,
				traceCacheLines, traceMaxCycles(len(recs)), agents)
		},
	})
	return nil
}

// TraceFlag is the repeatable -trace name=path flag the sweep, serve and
// router CLIs accept at boot (flag.Var(new(TraceFlag), "trace", ...)).
// Set reads the file and registers its bytes as experiment
// "trace-<name>", so a bad argument fails flag parsing; the value is
// the arguments accepted so far.
type TraceFlag []string

func (f *TraceFlag) String() string { return strings.Join(*f, ",") }

func (f *TraceFlag) Set(arg string) error {
	name, path, ok := strings.Cut(arg, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := RegisterTrace(name, raw); err != nil {
		return err
	}
	*f = append(*f, arg)
	return nil
}
