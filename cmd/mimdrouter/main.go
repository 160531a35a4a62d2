// Command mimdrouter is the S25 shard-manager tier: an HTTP router in
// front of a static fleet of mimdserved workers. It partitions the
// content-hash request-id space across the fleet with rendezvous
// hashing and proxies submissions and event streams to each shard's
// owner. It keeps no state about workers: a request that finds a worker
// dead, silent or shedding walks on to the shard's next rendezvous
// candidate, and gets the router's own 503 + Retry-After when every
// candidate failed. Results are byte-identical to a single-node run:
// request ids are pure content hashes, so any worker that runs a spec
// stores the same bytes.
//
// -attempt-timeout bounds the wait for a worker's response headers
// before failing over; -journal makes submissions durable — a restarted
// router replays unfinished flights before taking traffic, and SIGINT
// drains in-flight streams to their terminal frame before exiting.
//
// Usage:
//
//	mimdrouter -workers w1=http://10.0.0.1:8471,w2=http://10.0.0.2:8471
//	mimdrouter -spawn 3            # self-contained: 3 in-process workers
//
// The -job-timeout and -max-jobs flags must mirror the workers' values:
// both feed the content-hash request id the router routes on.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/serve"
)

func main() { os.Exit(run(context.Background(), os.Args[1:], os.Stderr)) }

// run serves until SIGINT or ctx ends, then drains. Exit codes: 0 after
// a drain, 1 when it could not start or serve, 2 for a bad command line.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("mimdrouter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:8470", "listen address")
		workers   = fs.String("workers", "", "declared fleet as id=url[,id=url...]")
		spawn     = fs.Int("spawn", 0, "instead of -workers, start this many in-process workers on loopback ports")
		jobTO     = fs.Duration("job-timeout", 0, "per-job budget the workers run with (feeds the request id; must match)")
		maxJobs   = fs.Int("max-jobs", 10000, "spec expansion limit the workers run with (must match)")
		journalP  = fs.String("journal", "", "flight journal path; submissions are journaled and resumed after a restart")
		attemptTO = fs.Duration("attempt-timeout", 2*time.Second, "max wait for a worker's response headers before failing over; 0 disables")
		drainTO   = fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight streams on SIGINT before exiting anyway")
	)
	fs.Var(new(experiments.TraceFlag), "trace", "register a trace workload as name=path (repeatable) for -spawn workers; runnable as experiment \"trace-<name>\"")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "mimdrouter:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	defer stop()

	if *spawn > 0 && *workers != "" {
		return fail(fmt.Errorf("use -workers or -spawn, not both"))
	}
	fleet, err := parseFleet(*workers)
	if *spawn > 0 {
		fleet, err = spawnWorkers(ctx, stderr, *spawn, *jobTO, *maxJobs)
	}
	if err != nil {
		return fail(err)
	}

	var journal *cluster.Journal
	if *journalP != "" {
		journal, err = cluster.OpenJournal(*journalP)
		if err != nil {
			return fail(err)
		}
		defer journal.Close()
	}

	idOpts := serve.Options{JobTimeout: *jobTO, MaxJobs: *maxJobs}
	router, err := cluster.New(cluster.Options{
		Workers:        fleet,
		RequestID:      func(body []byte) (string, error) { return serve.ComputeRequestID(body, idOpts) },
		AttemptTimeout: *attemptTO,
		Journal:        journal,
	})
	if err != nil {
		return fail(err)
	}

	if journal != nil {
		// Replay flights left pending by a previous run before taking new
		// traffic: content-hash ids make the replay idempotent.
		n, err := router.ResumePending(ctx)
		if err != nil {
			fmt.Fprintln(stderr, "mimdrouter: journal resume:", err)
		} else if n > 0 {
			fmt.Fprintf(stderr, "mimdrouter: resumed %d pending flight(s) from %s\n", n, *journalP)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	hs := &http.Server{Handler: router.Handler()}
	errs := make(chan error, 1)
	go func() { errs <- hs.Serve(ln) }()
	fmt.Fprintf(stderr, "mimdrouter: listening on http://%s (%d workers, %d shards)\n",
		ln.Addr(), len(fleet), cluster.DefaultNumShards)

	select {
	case err := <-errs:
		return fail(err)
	case <-ctx.Done():
	}
	stop()
	// Graceful drain: new submissions shed with 503 + Retry-After while
	// in-flight proxied requests — including live event streams — run to
	// their terminal frame, bounded by -drain-timeout.
	fmt.Fprintln(stderr, "mimdrouter: draining")
	dctx, dcancel := context.WithTimeout(context.Background(), *drainTO)
	if err := router.Drain(dctx); err != nil {
		fmt.Fprintln(stderr, "mimdrouter: drain timed out; exiting with flights in the journal")
	}
	dcancel()
	fmt.Fprintln(stderr, "mimdrouter: stopping")
	hs.Shutdown(context.Background())
	return 0
}

// parseFleet decodes the -workers flag: id=url pairs, comma separated.
func parseFleet(s string) ([]cluster.Worker, error) {
	if s == "" {
		return nil, fmt.Errorf("no fleet: pass -workers id=url[,id=url...] or -spawn N")
	}
	var fleet []cluster.Worker
	for _, part := range strings.Split(s, ",") {
		id, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad -workers entry %q (want id=url)", part)
		}
		fleet = append(fleet, cluster.Worker{ID: id, URL: strings.TrimSuffix(url, "/")})
	}
	return fleet, nil
}

// spawnWorkers boots n in-process mimdserved workers on loopback ports —
// the self-contained cluster used by `make cluster` and development.
func spawnWorkers(ctx context.Context, stderr io.Writer, n int, jobTO time.Duration, maxJobs int) ([]cluster.Worker, error) {
	fleet := make([]cluster.Worker, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("w%d", i+1)
		srv := serve.New(serve.Options{JobTimeout: jobTO, MaxJobs: maxJobs})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		go func() {
			<-ctx.Done()
			hs.Shutdown(context.Background())
		}()
		url := "http://" + ln.Addr().String()
		fmt.Fprintf(stderr, "mimdrouter: spawned worker %s at %s\n", id, url)
		fleet = append(fleet, cluster.Worker{ID: id, URL: url})
	}
	return fleet, nil
}
