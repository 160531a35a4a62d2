package sweep

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/experiments"
	"repro/internal/report"
)

// TestDispatchRunsJobsNotGroups: the job is the dispatch unit. With two
// workers, the seed replicas of one spec run side by side: each job waits,
// for a bounded time, until two of them are in flight at once, and fails
// if that never happens, so an engine that runs a spec's seeds serially on
// one worker fails here rather than hangs. A BatchRunner set alongside is
// never called.
func TestDispatchRunsJobsNotGroups(t *testing.T) {
	spec := Spec{Experiment: "fake-a", Version: 1, Axes: experiments.Axes{Seed: true},
		Seeds: []uint64{1, 2, 3, 4}, Scale: 1}
	var (
		inFlight atomic.Int32
		paired   = make(chan struct{})
		pair     sync.Once
	)
	job := func(js JobSpec) (*report.Table, error) {
		if inFlight.Add(1) == 2 {
			pair.Do(func() { close(paired) })
		}
		defer inFlight.Add(-1)
		select {
		case <-paired:
			return fakeRunner(js)
		case <-time.After(5 * time.Second):
			return nil, fmt.Errorf("seed %d: no other job of its spec started within 5s", js.Seed)
		}
	}
	var batchCalls atomic.Int64
	out, err := New(Options{
		Workers: 2,
		Runner:  job,
		BatchRunner: func(js JobSpec, _ *batch.Arena) (*report.Table, error) {
			batchCalls.Add(1)
			return job(js)
		},
	}).Run(context.Background(), []Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if out.Executed != len(spec.Seeds) {
		t.Errorf("executed %d jobs, want %d", out.Executed, len(spec.Seeds))
	}
	if n := batchCalls.Load(); n != 0 {
		t.Errorf("the engine called BatchRunner %d times", n)
	}
}
