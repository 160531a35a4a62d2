package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/experiments"
	"repro/internal/report"
)

// Runner executes one job and returns its table. The default runner goes
// through the experiments registry; tests inject counters and fakes.
type Runner func(spec JobSpec) (*report.Table, error)

// BatchRunner executes one job with a batch arena.
//
// Deprecated: the engine never calls one. The type stays only because the
// frozen benchmark/ module names it; ROADMAP direction 1 deletes it.
type BatchRunner func(spec JobSpec, arena *batch.Arena) (*report.Table, error)

// ExperimentRunner is the production Runner: it resolves the job's
// experiment in the registry, checks its version epoch, and executes it
// with the job's parameters.
func ExperimentRunner(spec JobSpec) (*report.Table, error) {
	e, err := experiments.ByID(spec.Experiment)
	if err != nil {
		return nil, err
	}
	if e.Version != spec.Version {
		return nil, fmt.Errorf("sweep: %s is at version %d but the job was expanded at version %d; rebuild the specs",
			e.ID, e.Version, spec.Version)
	}
	return e.Run(spec.Params())
}

// ExperimentBatchRunner ignores arena and runs ExperimentRunner.
//
// Deprecated: use ExperimentRunner. The function stays only because the
// frozen benchmark/ module names it; ROADMAP direction 1 deletes it.
func ExperimentBatchRunner(spec JobSpec, _ *batch.Arena) (*report.Table, error) {
	return ExperimentRunner(spec)
}

// Options configures an Engine.
type Options struct {
	// Workers sizes the pool; 0 means GOMAXPROCS.
	Workers int
	// Store memoizes results; nil means a fresh in-memory store (no
	// caching across runs).
	Store Store
	// Sink, when non-nil, receives every progress event (job
	// start/finish, wall time, cache hit/miss) as a value: a Hub for
	// fan-out and replay, NewWriterSink for a live JSONL stream, or any
	// custom EventSink. Event order follows completion order, not
	// canonical order — it is observability, not an artifact.
	Sink EventSink
	// Runner executes jobs; nil means ExperimentRunner.
	Runner Runner
	// BatchRunner is ignored: every job runs through Runner.
	//
	// Deprecated: the field stays only because the frozen benchmark/
	// module sets it; ROADMAP direction 1 deletes it.
	BatchRunner BatchRunner
	// JobTimeout, when positive, bounds each job's wall-clock time. A job
	// that exceeds it is marked failed with a TimeoutError (its goroutine
	// is abandoned, not killed) and the sweep continues.
	JobTimeout time.Duration
}

// Engine runs sweeps.
type Engine struct {
	opts Options
}

// New builds an engine.
func New(opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Store == nil {
		opts.Store = NewMemStore()
	}
	if opts.Runner == nil {
		opts.Runner = ExperimentRunner
	}
	return &Engine{opts: opts}
}

// Event is one progress record handed to Options.Sink.
type Event struct {
	Event      string  `json:"event"` // "start", "done", "failed", "sweep"
	Job        int     `json:"job,omitempty"`
	Key        string  `json:"key,omitempty"`
	Experiment string  `json:"experiment,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	Scale      int     `json:"scale,omitempty"`
	Cached     bool    `json:"cached,omitempty"`
	WallMS     float64 `json:"wall_ms,omitempty"`
	Jobs       int     `json:"jobs,omitempty"`
	Executed   int     `json:"executed,omitempty"`
	CacheHits  int     `json:"cache_hits,omitempty"`
	Failed     int     `json:"failed,omitempty"`
	// Error carries a failed job's full error text — for panics that
	// includes the recovered value and the worker's stack trace.
	Error string `json:"error,omitempty"`
}

// JobResult pairs a job with its table.
type JobResult struct {
	Job    Job
	Table  *report.Table
	Cached bool
	Wall   time.Duration
}

// ExperimentStat aggregates the jobs of one input spec.
type ExperimentStat struct {
	Experiment string
	Jobs       int
	Executed   int
	CacheHits  int
	// Wall is the summed per-job wall time (CPU-ish cost, not latency).
	Wall time.Duration
}

// Outcome is a completed sweep.
type Outcome struct {
	// Jobs holds every job result in canonical order.
	Jobs []JobResult
	// Tables holds one table per input Spec, in spec order, with seed
	// replicas aggregated into mean ±stddev (ci95) cells.
	Tables []*report.Table
	// Executed counts jobs that ran a simulation; CacheHits counts jobs
	// served from the store.
	Executed  int
	CacheHits int
	// Failed lists jobs that panicked or timed out, in canonical job
	// order. When non-empty, Run also returns a *FailureSummary error;
	// the successful jobs' results are still present (their Outcome
	// entries are filled and their objects are in the store), and specs
	// none of whose jobs succeeded have a nil entry in Tables.
	Failed []JobFailure
	// Wall is the sweep's end-to-end latency.
	Wall time.Duration
	// Stats breaks the sweep down per input spec, in spec order.
	Stats []ExperimentStat
}

// wallNow reads the wall clock for progress timing only; no simulation
// result ever depends on it.
func wallNow() time.Time {
	//lint:ignore observability-only wall time; results never depend on it
	return time.Now()
}

func (e *Engine) emit(ev Event) {
	if e.opts.Sink != nil {
		e.opts.Sink.Emit(ev)
	}
}

// Run expands specs into jobs, executes them on the worker pool, and
// merges the results in canonical order.
//
// Memoization: a job whose key is in the store is a cache hit and runs no
// simulation. Checkpointing: the store is the record of what is done —
// every completed job's object lands there as it finishes, so an
// interrupted sweep resumes by re-running only jobs whose objects are
// missing or corrupt. Cancelling ctx stops dispatch; jobs already running
// complete (and are stored) before Run returns ctx's error.
func (e *Engine) Run(ctx context.Context, specs []Spec) (*Outcome, error) {
	jobs := Expand(specs)
	start := wallNow()

	results := make([]JobResult, len(jobs))
	failed := make([]*JobFailure, len(jobs))
	var (
		mu       sync.Mutex
		firstErr error
	)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// finish records one job's outcome.
	finish := func(i int, res JobResult, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil && !recoverable(err) {
			// Infrastructure errors (store I/O, bad spec, runner errors)
			// fail the whole sweep fast.
			if firstErr == nil {
				firstErr = fmt.Errorf("sweep: job %d (%s seed=%d scale=%d): %w",
					i, jobs[i].Spec.Experiment, jobs[i].Spec.Seed, jobs[i].Spec.Scale, err)
			}
			cancel()
			return
		}
		if err != nil {
			// A panic or timeout poisons only its own job: record the
			// failure, keep draining the queue, and surface everything in
			// the FailureSummary at the end. Nothing is stored for it, so
			// a resume re-runs it.
			failed[i] = &JobFailure{Job: jobs[i], Err: err}
			results[i] = JobResult{Job: jobs[i]}
			e.emit(Event{Event: "failed", Job: i, Key: jobs[i].Key,
				Experiment: jobs[i].Spec.Experiment, Seed: jobs[i].Spec.Seed,
				Scale: jobs[i].Spec.Scale, Error: err.Error()})
			return
		}
		results[i] = res
	}

	// The dispatch unit is the job: workers take them one at a time in
	// canonical order, so a spec's seed replicas spread over the pool.
	idxCh := make(chan int)
	go func() {
		defer close(idxCh)
		for i := range jobs {
			select {
			case idxCh <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < e.opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				// The producer's select can hand out one more job after
				// cancellation; re-check here so no job starts post-cancel.
				if ctx.Err() != nil {
					continue
				}
				res, err := e.runJob(jobs[i])
				finish(i, res, err)
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	out := &Outcome{Jobs: results, Wall: wallNow().Sub(start)}
	for i, r := range results {
		switch {
		case failed[i] != nil:
			out.Failed = append(out.Failed, *failed[i])
		case r.Cached:
			out.CacheHits++
		default:
			out.Executed++
		}
	}
	if err := e.merge(out, specs, results, failed); err != nil {
		return nil, err
	}
	e.emitSweep(out)
	if len(out.Failed) > 0 {
		return out, &FailureSummary{Failures: out.Failed}
	}
	return out, nil
}

// Lookup answers specs from the store alone. It Gets each job once in
// canonical order and gives up at the first miss, having emitted nothing;
// when every job is stored it returns the Outcome an all-hit Run would
// have (same merge, same start, cached done and sweep events, in the
// order a one-worker Run emits them). It runs no job, takes no worker and
// writes nothing.
func (e *Engine) Lookup(specs []Spec) (*Outcome, bool, error) {
	jobs := Expand(specs)
	start := wallNow()
	results := make([]JobResult, len(jobs))
	for i, j := range jobs {
		jobStart := wallNow()
		res, ok, err := e.opts.Store.Get(j.Key)
		if err != nil || !ok || res.Table == nil {
			return nil, false, err
		}
		results[i] = JobResult{Job: j, Table: res.Table, Cached: true, Wall: wallNow().Sub(jobStart)}
	}
	out := &Outcome{Jobs: results, CacheHits: len(jobs), Wall: wallNow().Sub(start)}
	if err := e.merge(out, specs, results, make([]*JobFailure, len(jobs))); err != nil {
		return nil, false, err
	}
	for _, r := range results {
		e.emitStart(r.Job)
		e.emitDone(r)
	}
	e.emitSweep(out)
	return out, true, nil
}

// runJob serves one job from the store or executes it and memoizes the
// result.
func (e *Engine) runJob(j Job) (JobResult, error) {
	e.emitStart(j)
	start := wallNow()
	res, ok, err := e.opts.Store.Get(j.Key)
	if err != nil {
		return JobResult{}, err
	}
	var table *report.Table
	cached := false
	if ok && res.Table != nil {
		table = res.Table
		cached = true
	} else {
		table, err = e.callRunner(j.Spec)
		if err != nil {
			return JobResult{}, err
		}
		if table == nil {
			return JobResult{}, fmt.Errorf("runner returned no table")
		}
		if err := e.opts.Store.Put(&Result{Key: j.Key, Spec: j.Spec, Table: table}); err != nil {
			return JobResult{}, err
		}
	}
	done := JobResult{Job: j, Table: table, Cached: cached, Wall: wallNow().Sub(start)}
	e.emitDone(done)
	return done, nil
}

func (e *Engine) emitStart(j Job) {
	e.emit(Event{Event: "start", Job: j.Index, Key: j.Key,
		Experiment: j.Spec.Experiment, Seed: j.Spec.Seed, Scale: j.Spec.Scale})
}

func (e *Engine) emitDone(r JobResult) {
	j := r.Job
	e.emit(Event{Event: "done", Job: j.Index, Key: j.Key,
		Experiment: j.Spec.Experiment, Seed: j.Spec.Seed, Scale: j.Spec.Scale,
		Cached: r.Cached, WallMS: float64(r.Wall) / float64(time.Millisecond)})
}

func (e *Engine) emitSweep(out *Outcome) {
	e.emit(Event{Event: "sweep", Jobs: len(out.Jobs), Executed: out.Executed,
		CacheHits: out.CacheHits, Failed: len(out.Failed),
		WallMS: float64(out.Wall) / float64(time.Millisecond)})
}

// callRunner executes the configured Runner with panic recovery and,
// when Options.JobTimeout is set, a wall-clock budget. A recovered panic
// comes back as a *PanicError carrying the stack; a budget overrun comes
// back as a *TimeoutError (the runner goroutine is abandoned — Go cannot
// kill it — and its eventual result is discarded).
func (e *Engine) callRunner(spec JobSpec) (*report.Table, error) {
	run := func() (t *report.Table, err error) {
		defer func() {
			if v := recover(); v != nil {
				err = &PanicError{Value: v, Stack: debug.Stack()}
			}
		}()
		return e.opts.Runner(spec)
	}
	if e.opts.JobTimeout <= 0 {
		return run()
	}
	type answer struct {
		table *report.Table
		err   error
	}
	ch := make(chan answer, 1)
	go func() {
		t, err := run()
		ch <- answer{t, err}
	}()
	//lint:ignore determinism the job timeout is a harness wall-clock budget, not simulation state
	timer := time.NewTimer(e.opts.JobTimeout)
	defer timer.Stop()
	select {
	case a := <-ch:
		return a.table, a.err
	case <-timer.C:
		return nil, &TimeoutError{After: e.opts.JobTimeout}
	}
}

// merge regroups replicas by input spec, aggregates them, and fills the
// per-spec statistics — all in spec order, so the merged output is
// independent of scheduling. Failed jobs contribute no replica; a spec
// none of whose jobs succeeded gets a nil table (Tables stays aligned
// with specs, and Run returns a FailureSummary alongside the outcome).
func (e *Engine) merge(out *Outcome, specs []Spec, results []JobResult, failed []*JobFailure) error {
	bySpec := make([][]JobResult, len(specs))
	for i, r := range results {
		if failed[i] != nil {
			continue
		}
		bySpec[r.Job.SpecIndex] = append(bySpec[r.Job.SpecIndex], r)
	}
	for si := range specs {
		group := bySpec[si]
		stat := ExperimentStat{Experiment: specs[si].Experiment, Jobs: len(group)}
		tables := make([]*report.Table, 0, len(group))
		for _, r := range group {
			tables = append(tables, r.Table)
			stat.Wall += r.Wall
			if r.Cached {
				stat.CacheHits++
			} else {
				stat.Executed++
			}
		}
		var merged *report.Table
		if len(tables) > 0 {
			var err error
			merged, err = Aggregate(tables)
			if err != nil {
				return fmt.Errorf("sweep: aggregating %s: %w", specs[si].Experiment, err)
			}
		}
		out.Tables = append(out.Tables, merged)
		out.Stats = append(out.Stats, stat)
	}
	return nil
}
