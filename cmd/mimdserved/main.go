// Command mimdserved is the S24 simulation-as-a-service daemon: an HTTP
// front end over the S21 sweep engine. Clients POST experiment, sweep,
// or fault-campaign specs as JSON; the daemon validates them against
// the registries, coalesces identical concurrent submissions, executes
// them behind an admission controller (bounded queue, 429 +
// Retry-After on overload), serves repeats straight from the result
// store, and streams progress as SSE or JSONL.
//
// Usage:
//
//	mimdserved -addr 127.0.0.1:8471 -cache-dir .servecache
//	mimdserved -max-inflight 4 -queue-depth 128 -job-timeout 90s
//
// SIGINT drains gracefully: new submissions are refused with 503,
// running flights finish (or are cancelled at -drain-timeout with their
// completed jobs stored for resume), then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/sweep"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mimdserved:", err)
		os.Exit(1)
	}
}

// run is the daemon: it serves until SIGINT or until ctx is cancelled,
// drains, and returns. A bad flag exits 2 as the flag package does.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("mimdserved", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:8471", "listen address")
		cacheDir  = fs.String("cache-dir", "", "memoize job results in this sweep store directory (empty = in-memory, no persistence)")
		workers   = fs.Int("j", runtime.NumCPU(), "worker pool size per engine run")
		inflight  = fs.Int("max-inflight", 2, "max concurrent engine runs")
		queue     = fs.Int("queue-depth", 64, "max submissions waiting for a run slot before 429s; negative = no queue")
		jobTO     = fs.Duration("job-timeout", 0, "per-job wall-clock budget; requests may lower it but never raise it; 0 disables")
		retryHint = fs.Duration("retry-after", time.Second, "Retry-After hint on 429/503 responses")
		maxJobs   = fs.Int("max-jobs", 10000, "reject specs expanding past this many jobs")
		drainTO   = fs.Duration("drain-timeout", 30*time.Second, "how long a SIGINT drain waits before cancelling running flights")
	)
	fs.Var(new(experiments.TraceFlag), "trace", "register a trace workload as name=path (repeatable); runnable as experiment \"trace-<name>\"")
	fs.Parse(args)

	opts := serve.Options{
		Workers:     *workers,
		MaxInFlight: *inflight,
		QueueDepth:  *queue,
		JobTimeout:  *jobTO,
		RetryAfter:  *retryHint,
		MaxJobs:     *maxJobs,
	}
	if *cacheDir != "" {
		ds, err := sweep.OpenDirStore(*cacheDir)
		if err != nil {
			return err
		}
		opts.Store = ds
	}
	srv := serve.New(opts)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}

	// SIGINT starts the drain; a second ^C kills the process the usual
	// way once stop() restores default handling.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	defer stop()

	errs := make(chan error, 1)
	go func() { errs <- hs.Serve(ln) }()
	fmt.Fprintf(stderr, "mimdserved: listening on http://%s (store=%s inflight=%d queue=%d)\n",
		ln.Addr(), storeDesc(*cacheDir), *inflight, *queue)

	select {
	case err := <-errs:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(stderr, "mimdserved: draining (new submissions get 503; ^C again to kill)")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(stderr, "mimdserved: drain deadline hit; running flights cancelled, completed jobs are stored for resume")
	}
	hs.Shutdown(context.Background())
	fmt.Fprintln(stderr, "mimdserved: stopped")
	return nil
}

func storeDesc(dir string) string {
	if dir == "" {
		return "memory"
	}
	return dir
}
