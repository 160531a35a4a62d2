// Command chaoscampaign runs the S26 cluster chaos campaign: for each
// (chaos class, intensity) cell it boots an embedded fleet — router +
// N in-process workers — injects the cell's seeded fault plan into the
// router↔worker transport (or drives the pause/crash process schedule),
// pushes a deterministic traffic run through the front door, and
// classifies the cell against the fault-free single-node oracle:
//
//   - masked:   every request answered 200 on the first attempt,
//     every result byte-identical to the oracle — the fleet
//     absorbed the faults invisibly;
//   - degraded: the contract held (only 200 / 429 / 503-with-
//     Retry-After, nothing hung) but the seams showed —
//     retries, failovers, attempt timeouts, opened breakers,
//     or shed requests;
//   - failed:   a contract violation — a forbidden status, a hang past
//     the deadline, or a completed result whose bytes differ
//     from the oracle's.
//
// Usage:
//
//	chaoscampaign                                   # all classes at default intensity
//	chaoscampaign -classes conn-refuse,burst-5xx -intensities low,default,high
//	chaoscampaign -seed 7 -n 96 -workers 4 -j 4 -o matrix.txt
//	chaoscampaign -list-classes
//
// Determinism: a cell's traffic is sequential, its faults are a pure
// function of (seed, class, intensity, transport sequence number),
// health probing is driven by the traffic loop (never a wall-clock
// ticker), request hedging stays off, and classification reads only
// deterministic observables — statuses, retry counts, router counters,
// and result bytes. The same seed therefore renders the same matrix at
// any -j and on every rerun; TestCampaignSmoke pins exactly that.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/retry"
	"repro/internal/serve"
)

func main() {
	var (
		classList = flag.String("classes", "", "comma-separated chaos classes (default all); see -list-classes")
		intenList = flag.String("intensities", "default", "comma-separated intensities: low, default, high")
		seed      = flag.Uint64("seed", 1, "campaign seed; same seed = same fault plan = same matrix")
		requests  = flag.Int("n", 48, "traffic requests per cell")
		workers   = flag.Int("workers", 3, "workers per cell fleet (at least 2)")
		jobs      = flag.Int("j", runtime.NumCPU(), "cells run in parallel (each cell is internally sequential)")
		outPath   = flag.String("o", "", "write the matrix here instead of stdout")
		listCls   = flag.Bool("list-classes", false, "list chaos classes and exit")
	)
	flag.Parse()

	if *listCls {
		for _, c := range chaos.Classes() {
			kind := "transport"
			if c.Process() {
				kind = "process"
			}
			fmt.Printf("%-13s %s\n", c, kind)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg, err := buildConfig(*classList, *intenList, *seed, *requests, *workers)
	if err != nil {
		fatal(err)
	}
	results, err := runCampaign(ctx, cfg, *jobs)
	if err != nil {
		fatal(err)
	}
	matrix := renderMatrix(results)
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(matrix), 0o644); err != nil {
			fatal(err)
		}
	} else {
		fmt.Print(matrix)
	}
	for _, cell := range results {
		if cell.outcome() == outcomeFailed {
			fmt.Fprintf(os.Stderr, "chaoscampaign: cell %s/%s failed its contract\n", cell.class, cell.intensity)
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chaoscampaign:", err)
	os.Exit(1)
}

// config is one campaign's resolved shape.
type config struct {
	classes     []chaos.Class
	intensities []chaos.Intensity
	seed        uint64
	requests    int
	workers     int
}

func buildConfig(classList, intenList string, seed uint64, requests, workers int) (config, error) {
	cfg := config{seed: seed, requests: requests, workers: workers}
	if classList == "" {
		cfg.classes = chaos.Classes()
	} else {
		for _, name := range splitList(classList) {
			c, err := chaos.ParseClass(name)
			if err != nil {
				return cfg, err
			}
			cfg.classes = append(cfg.classes, c)
		}
	}
	for _, name := range splitList(intenList) {
		in, err := chaos.ParseIntensity(name)
		if err != nil {
			return cfg, err
		}
		cfg.intensities = append(cfg.intensities, in)
	}
	if len(cfg.intensities) == 0 {
		cfg.intensities = []chaos.Intensity{chaos.Default}
	}
	if cfg.workers < 2 {
		return cfg, fmt.Errorf("need at least 2 workers (the contract is stated for fleets with a healthy successor); got %d", cfg.workers)
	}
	if cfg.requests < 8 {
		return cfg, fmt.Errorf("need at least 8 requests per cell; got %d", cfg.requests)
	}
	return cfg, nil
}

// splitList splits a comma-separated flag, dropping empty entries.
func splitList(list string) []string {
	var out []string
	for _, part := range strings.Split(list, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// Cell tuning. AttemptTimeout must comfortably exceed both the plan's
// worst latency spike (120ms) and a cold engine run, and must always
// fire against a paused worker — both hold by orders of magnitude, so
// the classification the timeouts feed stays deterministic.
const (
	attemptTimeout = 2 * time.Second
	probeEvery     = 2 // traffic requests per health-probe round
	clientTimeout  = 15 * time.Second
	clientAttempts = 6
)

// specMix is the deterministic traffic mix, cycled by request index:
// four quick experiments.
func specMix() []string {
	return []string{
		`{"kind":"experiment","experiment":"fig3-1","seeds":[1]}`,
		`{"kind":"experiment","experiment":"fig5-1","seeds":[1]}`,
		`{"kind":"experiment","experiment":"fig6-1","seeds":[2]}`,
		`{"kind":"experiment","experiment":"fig6-2","seeds":[1]}`,
	}
}

// canonical extracts the deterministic content of a result: the merged
// tables and the rendered report. Routing metadata (cache status, wall
// time, executed counts) legitimately varies with failover and caching;
// the tables must not.
func canonical(r serve.Response) string {
	return strings.Join(r.Tables, "\x1e") + "\x1f" + r.Report
}

// oracleRun executes every distinct spec once on a single fault-free
// worker and returns the canonical bytes per spec — the byte-identity
// reference every cell's completed results are held to.
func oracleRun(mix []string) (map[string]string, error) {
	srv := serve.New(serve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	oracle := make(map[string]string, len(mix))
	for _, spec := range mix {
		resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(spec))
		if err != nil {
			return nil, fmt.Errorf("oracle run: %v", err)
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, fmt.Errorf("oracle run: %v", rerr)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("oracle run: status %d for %s: %s", resp.StatusCode, spec, strings.TrimSpace(string(body)))
		}
		var r serve.Response
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, fmt.Errorf("oracle run: decoding response: %v", err)
		}
		oracle[spec] = canonical(r)
	}
	return oracle, nil
}

// outcome labels, in increasing severity.
const (
	outcomeMasked   = "masked"
	outcomeDegraded = "degraded"
	outcomeFailed   = "failed"
)

// cellResult is one (class, intensity) cell's classified run.
type cellResult struct {
	class     chaos.Class
	intensity chaos.Intensity

	requests  int
	completed int // answered 200 with oracle-matched bytes
	shed      int // retry budget exhausted on 429/503-with-Retry-After
	retries   int // client-side retry attempts across all requests
	injected  uint64

	failovers       int64
	attemptTimeouts int64
	breakerOpens    int64
	noWorker        int64
	truncated       int64

	mismatches int
	violations []string
}

func (c cellResult) outcome() string {
	if len(c.violations) > 0 || c.mismatches > 0 {
		return outcomeFailed
	}
	if c.shed+c.retries > 0 ||
		c.failovers+c.attemptTimeouts+c.breakerOpens+c.noWorker+c.truncated > 0 {
		return outcomeDegraded
	}
	return outcomeMasked
}

// runCampaign computes the oracle once, then runs every cell — up to
// `jobs` concurrently. Cells share nothing (own fleet, own ports, own
// transport), so parallelism cannot change any cell's result; the
// returned slice is in class-major, intensity-minor order regardless
// of completion order.
func runCampaign(ctx context.Context, cfg config, jobs int) ([]cellResult, error) {
	mix := specMix()
	oracle, err := oracleRun(mix)
	if err != nil {
		return nil, err
	}

	type cellKey struct {
		class     chaos.Class
		intensity chaos.Intensity
	}
	var keys []cellKey
	for _, c := range cfg.classes {
		for _, in := range cfg.intensities {
			keys = append(keys, cellKey{c, in})
		}
	}
	if jobs < 1 {
		jobs = 1
	}
	if jobs > len(keys) {
		jobs = len(keys)
	}

	results := make([]cellResult, len(keys))
	errs := make([]error, len(keys))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				key := keys[i]
				results[i], errs[i] = runCell(ctx, cfg, key.class, key.intensity, mix, oracle)
				if errs[i] == nil {
					fmt.Fprintf(os.Stderr, "chaoscampaign: cell %s/%s: %s\n",
						key.class, key.intensity, results[i].outcome())
				}
			}
		}()
	}
	for i := range keys {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// cellWorker is one embedded worker: a serve.Server behind a crash gate
// on its own loopback listener. Pause goes through the server's real
// pause gate (connections accepted, nothing answers — probes included);
// crash aborts every connection at the gate while the server object,
// and with it the store, survives for the restart.
type cellWorker struct {
	id   string
	srv  *serve.Server
	gate *crashGate
	hs   *http.Server
	url  string
}

// crashGate fronts a worker's handler; while crashed, every request —
// traffic and health probes alike — dies as an aborted connection, the
// closest in-process analog of a killed process's RSTs.
type crashGate struct {
	inner   http.Handler
	crashed atomic.Bool
}

func (g *crashGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.crashed.Load() {
		panic(http.ErrAbortHandler)
	}
	g.inner.ServeHTTP(w, r)
}

// strike applies a scheduled process fault; heal undoes it. A restart
// reuses the same server and listener: the store is intact, exactly the
// rolling-restart profile the class models.
func strike(w *cellWorker, pause bool) {
	if pause {
		w.srv.Pause()
	} else {
		w.gate.crashed.Store(true)
	}
}

func heal(w *cellWorker, pause bool) {
	if pause {
		w.srv.Resume()
	} else {
		w.gate.crashed.Store(false)
	}
}

// runCell boots one embedded fleet under the cell's plan and drives the
// traffic run. The loop is strictly sequential and owns every clock the
// cell's classification can see: transport faults are keyed by the
// request sequence, process faults fire at fixed request indices, and
// health probing (which is also the breakers' cooldown tick) runs every
// probeEvery requests instead of on a wall-clock ticker.
func runCell(ctx context.Context, cfg config, class chaos.Class, in chaos.Intensity, mix []string, oracle map[string]string) (cellResult, error) {
	res := cellResult{class: class, intensity: in, requests: cfg.requests}

	fleet := make([]cluster.Worker, cfg.workers)
	workers := make([]*cellWorker, cfg.workers)
	defer func() {
		for _, w := range workers {
			if w != nil {
				w.hs.Close()
			}
		}
	}()
	for i := range workers {
		id := fmt.Sprintf("w%d", i+1)
		srv := serve.New(serve.Options{Worker: true, WorkerID: id})
		gate := &crashGate{inner: srv.Handler()}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return res, err
		}
		hs := &http.Server{Handler: gate}
		go hs.Serve(ln)
		w := &cellWorker{id: id, srv: srv, gate: gate, hs: hs, url: "http://" + ln.Addr().String()}
		workers[i] = w
		fleet[i] = cluster.Worker{ID: id, URL: w.url}
	}

	plan := chaos.Plan{Seed: cfg.seed, Class: class, Intensity: in}
	tr := &chaos.Transport{Base: &http.Transport{}, Plan: plan}
	idOpts := serve.Options{}
	router, err := cluster.New(cluster.Options{
		Workers:   fleet,
		RequestID: func(body []byte) (string, error) { return serve.ComputeRequestID(body, idOpts) },
		Client:    &http.Client{Transport: tr},
		// Fast, deterministic failure detection: one failed probe round
		// marks a worker down, one stalled attempt fails over.
		AttemptTimeout: attemptTimeout,
		FailThreshold:  1,
		ProbeTimeout:   250 * time.Millisecond,
		ProbeRetries:   1,
		ProbeBackoff:   20 * time.Millisecond,
	})
	if err != nil {
		return res, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	front := &http.Server{Handler: router.Handler()}
	go front.Serve(ln)
	defer front.Close()
	base := "http://" + ln.Addr().String()

	events := plan.ProcSchedule(uint64(cfg.requests), cfg.workers)
	res.injected += uint64(len(events))
	client := &http.Client{Timeout: clientTimeout, Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	for i := 0; i < cfg.requests; i++ {
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		seq := uint64(i)
		for _, ev := range events {
			if ev.Until == seq {
				heal(workers[ev.Worker], ev.Pause)
			}
			if ev.At == seq {
				strike(workers[ev.Worker], ev.Pause)
			}
		}
		if i%probeEvery == 0 {
			router.ProbeOnce(ctx)
		}
		spec := mix[i%len(mix)]
		out := issueOne(ctx, client, base, spec, seq)
		res.retries += out.retries
		switch {
		case out.violation != "":
			res.violations = append(res.violations, fmt.Sprintf("request %d: %s", i, out.violation))
		case out.status == http.StatusOK:
			var r serve.Response
			if err := json.Unmarshal(out.body, &r); err != nil {
				res.violations = append(res.violations, fmt.Sprintf("request %d: unparseable 200 body: %v", i, err))
			} else if canonical(r) != oracle[spec] {
				res.mismatches++
			} else {
				res.completed++
			}
		default:
			res.shed++
		}
	}
	// The schedule heals every fault before the run ends; make that so
	// even if the loop bailed early on ctx cancellation.
	for _, ev := range events {
		heal(workers[ev.Worker], ev.Pause)
	}

	st := tr.Stats()
	res.injected += st.Faults()
	m := router.Metrics()
	res.failovers = m.Failovers()
	res.attemptTimeouts = m.AttemptTimeouts()
	res.breakerOpens = m.BreakerOpens()
	res.noWorker = m.NoWorker()
	res.truncated = m.TruncatedStreams()
	return res, nil
}

// reqOutcome is one traffic request's terminal state after client-side
// retries.
type reqOutcome struct {
	status    int
	retries   int
	body      []byte
	violation string
}

// issueOne drives one request through the router under the shared retry
// policy, seeded by the request index so reruns sleep the same
// schedule. Only 200, 429, and 503-with-Retry-After are inside the
// contract; 429/503 are retried on the policy's own seeded backoff (the
// Retry-After value is verified as present, not slept on — cells must
// stay fast and their waits seed-derived). Anything else — a forbidden
// status, a transport error from the chaos-free front hop, a deadline
// overrun — is a contract violation.
func issueOne(ctx context.Context, client *http.Client, base, spec string, seq uint64) reqOutcome {
	var out reqOutcome
	pol := retry.Policy{
		Base:        25 * time.Millisecond,
		Cap:         400 * time.Millisecond,
		MaxAttempts: clientAttempts,
		Seed:        seq,
	}
	first := true
	retry.Do(ctx, pol, func(ctx context.Context) error {
		if !first {
			out.retries++
		}
		first = false
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/run", strings.NewReader(spec))
		if err != nil {
			out.violation = err.Error()
			return retry.Permanent(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			out.violation = fmt.Sprintf("transport error from router: %v", err)
			return retry.Permanent(err)
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			out.violation = fmt.Sprintf("reading router response: %v", rerr)
			return retry.Permanent(rerr)
		}
		out.status = resp.StatusCode
		switch resp.StatusCode {
		case http.StatusOK:
			out.body = body
			return nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if resp.Header.Get("Retry-After") == "" {
				out.violation = fmt.Sprintf("%d without Retry-After", resp.StatusCode)
				return retry.Permanent(fmt.Errorf("missing Retry-After"))
			}
			return fmt.Errorf("shed with %d", resp.StatusCode)
		default:
			out.violation = fmt.Sprintf("contract-breaking status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
			return retry.Permanent(fmt.Errorf("status %d", resp.StatusCode))
		}
	})
	return out
}

// renderMatrix renders the campaign's classification table, one row per
// cell in class-major order, with any violations appended.
func renderMatrix(cells []cellResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-13s %-9s %4s %5s %4s %7s %9s %8s %8s %8s %8s  %s\n",
		"class", "intensity", "reqs", "ok", "shed", "retries", "failovers", "timeouts", "breakers", "injected", "noworker", "outcome")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-13s %-9s %4d %5d %4d %7d %9d %8d %8d %8d %8d  %s\n",
			c.class, c.intensity, c.requests, c.completed, c.shed, c.retries,
			c.failovers, c.attemptTimeouts, c.breakerOpens, c.injected, c.noWorker, c.outcome())
	}
	for _, c := range cells {
		if c.mismatches > 0 {
			fmt.Fprintf(&b, "cell %s/%s: %d result(s) diverged from the oracle bytes\n", c.class, c.intensity, c.mismatches)
		}
		for _, v := range c.violations {
			fmt.Fprintf(&b, "cell %s/%s: %s\n", c.class, c.intensity, v)
		}
	}
	return b.String()
}
