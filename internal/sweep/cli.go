package sweep

import (
	"context"
	"errors"
	"fmt"
	"io"
)

// ReportRunError is the one uniform rendering of an Engine.Run error for
// every CLI (cmd/paperrepro, cmd/faultcampaign). It writes
// the diagnosis to w prefixed with the tool name and returns the exit
// code the process must use:
//
//	0    err was nil — nothing was written
//	130  the run was interrupted (context.Canceled): completed jobs are
//	     journaled, so re-running with the same cache directory resumes
//	1    per-job failures (a *FailureSummary: panics, timeouts) — every
//	     failure is listed and the completed/total tally printed — or
//	     any other infrastructure error
//
// out may be nil (it is, whenever err is not a FailureSummary).
func ReportRunError(w io.Writer, tool string, out *Outcome, err error) int {
	if err == nil {
		return 0
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(w, "%s: interrupted; completed jobs are journaled — re-run with the same -cache-dir to resume\n", tool)
		return 130
	}
	var failures *FailureSummary
	if errors.As(err, &failures) {
		// Per-job failures: the successful jobs' results are in the
		// store; report every failure and make the caller exit non-zero
		// rather than presenting a partial result as complete.
		fmt.Fprintf(w, "%s: %s\n", tool, failures.Error())
		if out != nil {
			fmt.Fprintf(w, "%s: %d of %d job(s) completed and are journaled; re-run to retry the failures\n",
				tool, len(out.Jobs)-len(out.Failed), len(out.Jobs))
		}
		return 1
	}
	fmt.Fprintf(w, "%s: %v\n", tool, err)
	return 1
}
