// Command mimdrouter is the S25 shard-manager tier: an HTTP router in
// front of N mimdserved workers. It partitions the content-hash
// request-id space across the fleet with rendezvous hashing, proxies
// submissions and event streams to each shard's owner, detects worker
// failure (active probing plus passive proxy errors) and fails over,
// and runs a p99-latency-driven rebalancer that grants hot shards a
// read replica filled over the replication pull API — retiring it again
// on sustained recovery. Results are byte-identical to a single-node
// run: request ids are pure content hashes and replicas are filled with
// raw store bytes.
//
// Self-healing controls: per-worker circuit breakers open after
// consecutive proxy failures and re-admit traffic through a half-open
// trial; -attempt-timeout bounds the wait for a worker's response
// headers before failing over; -journal makes submissions durable — a
// restarted router replays unfinished flights before taking traffic,
// and SIGINT drains in-flight streams to their terminal frame before
// exiting.
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
	"flag"
	"fmt"
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

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8470", "listen address")
		workers   = flag.String("workers", "", "declared fleet as id=url[,id=url...]")
		spawn     = flag.Int("spawn", 0, "instead of -workers, start this many in-process workers on loopback ports")
		shards    = flag.Int("shards", 0, "virtual shard space size; must match the workers'; 0 = default")
		jobTO     = flag.Duration("job-timeout", 0, "per-job budget the workers run with (feeds the request id; must match)")
		maxJobs   = flag.Int("max-jobs", 10000, "spec expansion limit the workers run with (must match)")
		hotP99    = flag.Float64("hot-p99-ms", 250, "windowed p99 (ms) that trips a shard's read replica")
		recover99 = flag.Float64("recover-p99-ms", 0, "p99 (ms) at or under which a replicated shard cools; 0 = hot/4")
		minSamp   = flag.Int64("min-samples", 16, "smallest window that can trip a replica")
		coolPolls = flag.Int("cool-polls", 3, "consecutive cool polls before a replica retires")
		pollIvl   = flag.Duration("poll-interval", 2*time.Second, "rebalancer poll cadence")
		probeIvl  = flag.Duration("probe-interval", time.Second, "health probe cadence")
		journalP  = flag.String("journal", "", "flight journal path; submissions are journaled and resumed after a restart")
		attemptTO = flag.Duration("attempt-timeout", 2*time.Second, "max wait for a worker's response headers before failing over; 0 disables")
		drainTO   = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight streams on SIGINT before exiting anyway")
	)
	flag.Var(new(experiments.TraceFlag), "trace", "register a trace workload as name=path (repeatable) for -spawn workers; runnable as experiment \"trace-<name>\"")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var fleet []cluster.Worker
	switch {
	case *spawn > 0 && *workers != "":
		fatal(fmt.Errorf("use -workers or -spawn, not both"))
	case *spawn > 0:
		var err error
		fleet, err = spawnWorkers(ctx, *spawn, *shards, *jobTO, *maxJobs)
		if err != nil {
			fatal(err)
		}
	default:
		var err error
		fleet, err = parseFleet(*workers)
		if err != nil {
			fatal(err)
		}
	}

	var journal *cluster.Journal
	if *journalP != "" {
		var err error
		journal, err = cluster.OpenJournal(*journalP)
		if err != nil {
			fatal(err)
		}
		defer journal.Close()
	}

	idOpts := serve.Options{JobTimeout: *jobTO, MaxJobs: *maxJobs}
	router, err := cluster.New(cluster.Options{
		Workers:        fleet,
		NumShards:      *shards,
		RequestID:      func(body []byte) (string, error) { return serve.ComputeRequestID(body, idOpts) },
		HotP99MS:       *hotP99,
		RecoverP99MS:   *recover99,
		MinSamples:     *minSamp,
		CoolPolls:      *coolPolls,
		PollInterval:   *pollIvl,
		ProbeInterval:  *probeIvl,
		AttemptTimeout: *attemptTO,
		Journal:        journal,
	})
	if err != nil {
		fatal(err)
	}
	router.Start(ctx)

	if journal != nil {
		// Replay flights left pending by a previous run before taking new
		// traffic: content-hash ids make the replay idempotent.
		n, err := router.ResumePending(ctx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mimdrouter: journal resume:", err)
		} else if n > 0 {
			fmt.Fprintf(os.Stderr, "mimdrouter: resumed %d pending flight(s) from %s\n", n, *journalP)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: router.Handler()}
	errs := make(chan error, 1)
	go func() { errs <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "mimdrouter: listening on http://%s (%d workers, %d shards)\n",
		ln.Addr(), len(fleet), router.NumShards())

	select {
	case err := <-errs:
		fatal(err)
	case <-ctx.Done():
	}
	stop()
	// Graceful drain: new submissions shed with 503 + Retry-After while
	// in-flight proxied requests — including live event streams — run to
	// their terminal frame, bounded by -drain-timeout.
	fmt.Fprintln(os.Stderr, "mimdrouter: draining")
	dctx, dcancel := context.WithTimeout(context.Background(), *drainTO)
	if err := router.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "mimdrouter: drain timed out; exiting with flights in the journal")
	}
	dcancel()
	fmt.Fprintln(os.Stderr, "mimdrouter: stopping")
	hs.Shutdown(context.Background())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mimdrouter:", err)
	os.Exit(1)
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
func spawnWorkers(ctx context.Context, n, shards int, jobTO time.Duration, maxJobs int) ([]cluster.Worker, error) {
	fleet := make([]cluster.Worker, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("w%d", i+1)
		srv := serve.New(serve.Options{
			Worker:     true,
			NumShards:  shards,
			WorkerID:   id,
			JobTimeout: jobTO,
			MaxJobs:    maxJobs,
		})
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
		fmt.Fprintf(os.Stderr, "mimdrouter: spawned worker %s at %s\n", id, url)
		fleet = append(fleet, cluster.Worker{ID: id, URL: url})
	}
	return fleet, nil
}
