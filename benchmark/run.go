package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// A run repeats its set-up setupReps times, and on while the set-ups so
// far took under a second in total, up to maxSetupReps; setup_s is the
// median.
const (
	setupReps    = 3
	maxSetupReps = 9
)

// smokeDivisor scales every fixed count down for -smoke.
const smokeDivisor = 200

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload   string           `json:"workload"`
	Seed       uint64           `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Traced     bool             `json:"traced"`
	Smoke      bool             `json:"smoke,omitempty"`
	GoMaxProcs int              `json:"gomaxprocs"`
	NProc      int              `json:"nproc"`
	GoVersion  string           `json:"go_version"`
	Correct    bool             `json:"correct"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	Failures   []string         `json:"failures,omitempty"`
	Notes      []string         `json:"notes,omitempty"`
	Samples    map[string]int   `json:"samples"`
	Metrics    map[string]value `json:"metrics"`
}

// runCtx carries one run's inputs and collects its outputs.
type runCtx struct {
	seed    uint64
	seconds float64
	smoke   bool
	tr      *tracer // nil when tracing is off
	scratch string  // private directory, removed when the run ends
	res     *result
	setups  []float64
}

// n scales a fixed count for -smoke, never below floor.
func (rc *runCtx) n(full, floor int) int {
	if !rc.smoke {
		return full
	}
	return max(full/smokeDivisor, floor)
}

func (rc *runCtx) traced() bool { return rc.tr != nil }

// set records a metric by its registry name.
func (rc *runCtx) set(name string, v float64) {
	def, ok := metricByName(name)
	if !ok {
		panic("benchmark: metric " + name + " is not in the registry")
	}
	rc.res.Metrics[name] = value{Value: v, Unit: def.Unit}
}

// setUnitTimes records the host time of the workload's unit of work:
// its median, and the first quartile, which the host's bursts of
// interference barely move.
func (rc *runCtx) setUnitTimes(ms []float64) {
	rc.set("p50_ms", median(ms))
	rc.set("p25_ms", percentile(sortedCopy(ms), 25))
}

func (rc *runCtx) samples(name string, n int) { rc.res.Samples[name] = n }

func (rc *runCtx) note(format string, args ...any) {
	rc.res.Notes = append(rc.res.Notes, fmt.Sprintf(format, args...))
}

// attempt counts n attempted operations.
func (rc *runCtx) attempt(n int) { rc.res.Attempted += n }

// check counts one correctness check and, when err is not nil, one
// failed operation.
func (rc *runCtx) check(what string, err error) {
	rc.res.Attempted++
	if err != nil {
		rc.fail("%s: %v", what, err)
	}
}

// fail records one failed operation.
func (rc *runCtx) fail(format string, args ...any) {
	rc.res.Failed++
	if len(rc.res.Failures) < 20 {
		rc.res.Failures = append(rc.res.Failures, fmt.Sprintf(format, args...))
	}
}

// setup runs f setupReps times, timing each, and keeps what the last
// call built. f must start from nothing every time.
func (rc *runCtx) setup(f func() error) error { return rc.setupDiscarding(f, nil) }

// setupDiscarding is setup for set-ups that start servers: discard tears
// down what every call but the last built, outside the timing.
func (rc *runCtx) setupDiscarding(f func() error, discard func()) error {
	// A set-up of a few tens of milliseconds is repeated more often, up to
	// a second in total: its median is otherwise the noisiest number of
	// the run.
	last, spent := setupReps-1, 0.0
	for i := 0; i <= last; i++ {
		// Collect what the previous repetition left, so that peak memory
		// is one set-up's, not however many the collector had not reached.
		runtime.GC()
		start := now()
		id := rc.tr.begin("setup", "", 0)
		err := f()
		rc.tr.end(id)
		if err != nil {
			return err
		}
		rc.setups = append(rc.setups, since(start).Seconds())
		spent += rc.setups[i]
		if i == last && !rc.smoke && spent < 1 && last < maxSetupReps-1 {
			last++
		}
		if discard != nil && i < last {
			discard()
		}
	}
	return nil
}

// tempDir makes a fresh directory under the run's scratch directory.
func (rc *runCtx) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(rc.scratch, prefix+"-")
}

// deadline is when the timed section may stop, counted from start.
func (rc *runCtx) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(rc.seconds * float64(time.Second)))
}

// scratchDir makes a private directory under ./.scratch: the checkout is
// the only place the harness may write. cleanup removes it again, and
// .scratch with it once that is empty.
func scratchDir(prefix string) (dir string, cleanup func(), err error) {
	if err := os.MkdirAll(".scratch", 0o755); err != nil {
		return "", nil, err
	}
	if dir, err = os.MkdirTemp(".scratch", prefix+"-"); err != nil {
		return "", nil, err
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return "", nil, err
	}
	return dir, func() {
		os.RemoveAll(dir)
		os.Remove(".scratch")
	}, nil
}

// runWorkload measures one workload once.
func runWorkload(w workloadDef, seed uint64, seconds float64, traced, smoke bool) (*result, []span, error) {
	scratch, cleanup, err := scratchDir(w.Name)
	if err != nil {
		return nil, nil, err
	}
	defer cleanup()

	rc := &runCtx{
		seed: seed, seconds: seconds, smoke: smoke, scratch: scratch,
		res: &result{
			Workload: w.Name, Seed: seed, Seconds: seconds, Traced: traced, Smoke: smoke,
			GoMaxProcs: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
			Samples: map[string]int{}, Metrics: map[string]value{},
		},
	}
	if traced {
		rc.tr = newTracer()
	}
	if err := w.run(rc); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	spans := rc.tr.snapshot()
	if traced {
		rc.set("harness.spans", float64(len(spans)))
		rc.set("harness.failed_share", ratio(float64(rc.res.Failed), float64(rc.res.Attempted)))
	} else {
		rc.set("setup_s", median(rc.setups))
		rc.set("peak_rss_mb", peakRSSMB())
	}
	rc.res.Correct = rc.res.Failed == 0
	if rc.res.Attempted == 0 {
		return nil, nil, fmt.Errorf("%s: nothing was attempted", w.Name)
	}
	return rc.res, spans, nil
}

// contractLine is the one JSON object the driver reads from the last
// line of standard output: every end-to-end metric with tracing off,
// every per-layer metric with tracing on.
func contractLine(r *result) ([]byte, error) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		switch {
		case ok:
			metrics[d.Name] = v
		case r.Traced:
			// A layer this workload does not exercise.
			metrics[d.Name] = value{Value: 0, Unit: d.Unit}
		default:
			return nil, fmt.Errorf("%s did not measure %s", r.Workload, d.Name)
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}
