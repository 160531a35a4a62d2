package sweep

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// PanicError wraps a panic recovered inside a sweep worker. The job that
// panicked is marked failed and the run keeps draining the queue — one
// poisoned cell must not take down a long campaign — but the failure (with
// the recovered value and stack) is emitted on the events stream and
// surfaced in the run's FailureSummary.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("runner panicked: %v\n%s", p.Value, p.Stack)
}

// TimeoutError marks a job that exceeded Options.JobTimeout. The runner's
// goroutine cannot be killed and is abandoned; the job is marked failed
// and the sweep continues.
type TimeoutError struct {
	// After is the configured per-job wall-clock budget.
	After time.Duration
}

func (t *TimeoutError) Error() string {
	return fmt.Sprintf("runner exceeded the %v per-job timeout", t.After)
}

// JobFailure pairs a failed job with its error.
type JobFailure struct {
	Job Job
	Err error
}

// FailureSummary is the error Run returns when recoverable failures
// (panics, timeouts) occurred: the returned Outcome still carries every
// successful job's result (and those results are stored), but the run as a
// whole is a failure and callers must exit non-zero.
type FailureSummary struct {
	// Failures lists the failed jobs in canonical job order.
	Failures []JobFailure
}

func (f *FailureSummary) Error() string {
	if len(f.Failures) == 0 {
		return "sweep: failure summary with no failures"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "sweep: %d job(s) failed:", len(f.Failures))
	for _, jf := range f.Failures {
		first, _, _ := strings.Cut(jf.Err.Error(), "\n")
		fmt.Fprintf(&sb, "\n  job %d (%s seed=%d scale=%d): %s",
			jf.Job.Index, jf.Job.Spec.Experiment, jf.Job.Spec.Seed, jf.Job.Spec.Scale, first)
	}
	return sb.String()
}

// recoverable reports whether err is a per-job failure the sweep should
// absorb and continue past (panic, timeout), as opposed to an
// infrastructure error (store I/O, bad spec) that fail-fasts the run.
func recoverable(err error) bool {
	var pe *PanicError
	var te *TimeoutError
	return errors.As(err, &pe) || errors.As(err, &te)
}
