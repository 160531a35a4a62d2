package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/retry"
	"repro/internal/serve"
)

// Config is one campaign's shape: every class at every intensity, each
// cell a fresh fleet of Workers under Requests traffic requests.
type Config struct {
	Classes     []Class
	Intensities []Intensity
	Seed        uint64
	Requests    int
	Workers     int
}

// Cell tuning. The attempt timeout must comfortably exceed both the
// plan's worst latency spike (120ms) and a cold run of the mix under the
// race detector, and must always fire against a paused worker; both hold
// by an order of magnitude, so the classification the timeouts feed
// stays deterministic. clients is how many concurrent clients drive a
// cell.
const (
	attemptTimeout = time.Second
	clientTimeout  = 15 * time.Second
	clientAttempts = 6
	clients        = 2
)

// requestHeader carries a traffic request's index from the campaign's
// clients through the front door, where it tags the request context for
// the Transport.
const requestHeader = "Chaos-Request"

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

// listen serves h on a fresh loopback port and returns the server and
// its base URL.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), nil
}

// oracleRun executes every distinct spec once on a single fault-free
// worker and returns the canonical bytes per spec — the byte-identity
// reference every cell's completed results are held to.
func oracleRun(mix []string) (map[string]string, error) {
	hs, base, err := listen(serve.New(serve.Options{}).Handler())
	if err != nil {
		return nil, err
	}
	defer hs.Close()
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

// Cell is one (class, intensity) cell's classified run.
type Cell struct {
	Class     Class
	Intensity Intensity

	Requests  int
	Completed int // answered 200 with oracle-matched bytes
	Shed      int // retry budget exhausted on 429/503-with-Retry-After
	Retries   int // client-side retry attempts across all requests
	Injected  uint64

	Failovers       int64
	AttemptTimeouts int64
	NoWorker        int64
	Truncated       int64

	Mismatches int
	Violations []string
}

// Outcome classifies the cell: failed on any contract violation or
// oracle mismatch, degraded when the fleet's seams showed (retries,
// failovers, attempt timeouts, sheds, truncations), masked otherwise.
func (c Cell) Outcome() string {
	if len(c.Violations) > 0 || c.Mismatches > 0 {
		return outcomeFailed
	}
	if c.Shed+c.Retries > 0 || c.Failovers+c.AttemptTimeouts+c.NoWorker+c.Truncated > 0 {
		return outcomeDegraded
	}
	return outcomeMasked
}

// Failed reports whether the cell broke the contract.
func (c Cell) Failed() bool { return c.Outcome() == outcomeFailed }

// Run computes the oracle once, then runs every cell — up to jobs
// concurrently. Cells share nothing (own fleet, own ports, own
// transport), so parallelism cannot change any cell's result; the
// returned slice is in class-major, intensity-minor order regardless of
// completion order.
func Run(ctx context.Context, cfg Config, jobs int) ([]Cell, error) {
	if cfg.Workers < 2 {
		return nil, fmt.Errorf("need at least 2 workers (the contract is stated for fleets with a healthy successor); got %d", cfg.Workers)
	}
	if cfg.Requests < 8 {
		return nil, fmt.Errorf("need at least 8 requests per cell; got %d", cfg.Requests)
	}
	mix := specMix()
	oracle, err := oracleRun(mix)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, c := range cfg.Classes {
		for _, in := range cfg.Intensities {
			cells = append(cells, Cell{Class: c, Intensity: in, Requests: cfg.Requests})
		}
	}
	jobs = max(1, min(jobs, len(cells)))
	errs := make([]error, len(cells))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				errs[i] = runCell(ctx, cfg, &cells[i], mix, oracle)
			}
		}()
	}
	for i := range cells {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// cellWorker is one embedded worker: a serve.Server behind a crash gate
// on its own loopback listener. Pause goes through the server's real
// pause gate (connections accepted, nothing answers); crash aborts every
// connection at the gate while the server object, and with it the store,
// survives for the restart.
type cellWorker struct {
	srv  *serve.Server
	gate *crashGate
	hs   *http.Server
}

// crashGate fronts a worker's handler; while crashed, every request
// dies as an aborted connection, the closest in-process analog of a
// killed process's RSTs.
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

// set applies (dark) or undoes a scheduled process fault. A restart
// reuses the same server and listener: the store is intact, exactly the
// rolling-restart profile the class models.
func (w *cellWorker) set(pause, dark bool) {
	switch {
	case pause && dark:
		w.srv.Pause()
	case pause:
		w.srv.Resume()
	default:
		w.gate.crashed.Store(dark)
	}
}

// runCell boots one embedded fleet under the cell's plan and drives its
// traffic with concurrent clients. A request's outcome depends only on
// its own index: transport faults are keyed by (request, call), and the
// process schedule is applied in phases — the traffic is cut at every
// event boundary, each phase's requests run concurrently, and a fault
// strikes or heals only between phases. The router keeps no state about
// workers between requests, so nothing else carries over.
func runCell(ctx context.Context, cfg Config, cell *Cell, mix []string, oracle map[string]string) error {
	fleet := make([]cluster.Worker, cfg.Workers)
	workers := make([]*cellWorker, cfg.Workers)
	defer func() {
		for _, w := range workers {
			if w != nil {
				w.hs.Close()
			}
		}
	}()
	for i := range workers {
		srv := serve.New(serve.Options{})
		gate := &crashGate{inner: srv.Handler()}
		hs, url, err := listen(gate)
		if err != nil {
			return err
		}
		workers[i] = &cellWorker{srv: srv, gate: gate, hs: hs}
		fleet[i] = cluster.Worker{ID: fmt.Sprintf("w%d", i+1), URL: url}
	}

	plan := Plan{Seed: cfg.Seed, Class: cell.Class, Intensity: cell.Intensity}
	proxy := &http.Transport{}
	defer proxy.CloseIdleConnections()
	tr := &Transport{Base: proxy, Plan: plan}
	router, err := cluster.New(cluster.Options{
		Workers:        fleet,
		RequestID:      func(body []byte) (string, error) { return serve.ComputeRequestID(body, serve.Options{}) },
		Client:         &http.Client{Transport: tr},
		AttemptTimeout: attemptTimeout,
	})
	if err != nil {
		return err
	}
	tags := make([]trafficRequest, cfg.Requests)
	for i := range tags {
		tags[i].index = uint64(i)
	}
	rh := router.Handler()
	front, base, err := listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i, err := strconv.Atoi(r.Header.Get(requestHeader))
		if err != nil || i < 0 || i >= len(tags) {
			http.Error(w, "untagged campaign request", http.StatusBadRequest)
			return
		}
		rh.ServeHTTP(w, r.WithContext(withTrafficRequest(r.Context(), &tags[i])))
	}))
	if err != nil {
		return err
	}
	defer front.Close()

	events := plan.ProcSchedule(uint64(cfg.Requests), cfg.Workers)
	bounds := []uint64{0, uint64(cfg.Requests)}
	for _, ev := range events {
		bounds = append(bounds, ev.At, ev.Until)
	}
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)

	client := &http.Client{Timeout: clientTimeout, Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	outs := make([]reqOutcome, cfg.Requests)
	for k := 0; k+1 < len(bounds); k++ {
		lo, hi := bounds[k], bounds[k+1]
		for _, ev := range events {
			if ev.Until == lo {
				workers[ev.Worker].set(ev.Pause, false)
			}
			if ev.At == lo {
				workers[ev.Worker].set(ev.Pause, true)
			}
		}
		var wg sync.WaitGroup
		for c := uint64(0); c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := lo + c; i < hi && ctx.Err() == nil; i += clients {
					outs[i] = issueOne(ctx, client, base, mix[i%uint64(len(mix))], i)
				}
			}()
		}
		wg.Wait()
	}
	// The schedule heals every fault before the run ends; make that so
	// even if the loop stopped early on ctx cancellation.
	for _, ev := range events {
		workers[ev.Worker].set(ev.Pause, false)
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	for i, out := range outs {
		spec := mix[i%len(mix)]
		cell.Retries += out.retries
		switch {
		case out.violation != "":
			cell.Violations = append(cell.Violations, fmt.Sprintf("request %d: %s", i, out.violation))
		case out.status == http.StatusOK:
			var r serve.Response
			if err := json.Unmarshal(out.body, &r); err != nil {
				cell.Violations = append(cell.Violations, fmt.Sprintf("request %d: unparseable 200 body: %v", i, err))
			} else if canonical(r) != oracle[spec] {
				cell.Mismatches++
			} else {
				cell.Completed++
			}
		default:
			cell.Shed++
		}
	}
	cell.Injected = uint64(len(events)) + tr.Stats().Faults()
	m := router.Metrics()
	cell.Failovers = m.Failovers()
	cell.AttemptTimeouts = m.AttemptTimeouts()
	cell.NoWorker = m.NoWorker()
	cell.Truncated = m.TruncatedStreams()
	return nil
}

// reqOutcome is one traffic request's terminal state after client-side
// retries.
type reqOutcome struct {
	status    int
	retries   int
	body      []byte
	violation string
}

// issueOne drives traffic request i through the router under the shared
// retry policy, seeded by the request index so reruns sleep the same
// schedule. Only 200, 429, and 503-with-Retry-After are inside the
// contract; 429/503 are retried on the policy's own seeded backoff (the
// Retry-After value is verified as present, not slept on — cells must
// stay fast and their waits seed-derived). Anything else — a forbidden
// status, a transport error from the chaos-free front hop, a deadline
// overrun — is a contract violation.
func issueOne(ctx context.Context, client *http.Client, base, spec string, i uint64) reqOutcome {
	var out reqOutcome
	pol := retry.Policy{
		Base:        25 * time.Millisecond,
		Cap:         400 * time.Millisecond,
		MaxAttempts: clientAttempts,
		Seed:        i,
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
		req.Header.Set(requestHeader, strconv.FormatUint(i, 10))
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

// Render renders the campaign's classification table, one row per cell
// in class-major order, with any violations appended.
func Render(cells []Cell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-13s %-9s %4s %5s %4s %7s %9s %8s %8s %8s  %s\n",
		"class", "intensity", "reqs", "ok", "shed", "retries", "failovers", "timeouts", "injected", "noworker", "outcome")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-13s %-9s %4d %5d %4d %7d %9d %8d %8d %8d  %s\n",
			c.Class, c.Intensity, c.Requests, c.Completed, c.Shed, c.Retries,
			c.Failovers, c.AttemptTimeouts, c.Injected, c.NoWorker, c.Outcome())
	}
	for _, c := range cells {
		if c.Mismatches > 0 {
			fmt.Fprintf(&b, "cell %s/%s: %d result(s) diverged from the oracle bytes\n", c.Class, c.Intensity, c.Mismatches)
		}
		for _, v := range c.Violations {
			fmt.Fprintf(&b, "cell %s/%s: %s\n", c.Class, c.Intensity, v)
		}
	}
	return b.String()
}
