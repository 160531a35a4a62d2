// Package serve is the S24 simulation-as-a-service layer: an HTTP
// front end over the S21 sweep engine. Clients POST experiment, sweep,
// or fault-campaign specs as JSON; the server validates them against
// the registries, coalesces identical concurrent submissions
// (singleflight keyed by the same version-salted content hashes the
// result store uses), executes them behind an admission controller
// (bounded queue, 429 + Retry-After on overload), serves repeated
// requests straight from the store, and streams per-job progress as
// SSE or JSONL. See DESIGN.md S24.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// Options configures a Server.
type Options struct {
	// Store memoizes job results across requests; nil means a private
	// in-memory store (no persistence, but coalescing still works).
	Store sweep.Store
	// Workers sizes each engine run's pool; 0 means GOMAXPROCS.
	Workers int
	// MaxInFlight bounds concurrent engine runs; 0 means 2.
	MaxInFlight int
	// QueueDepth bounds submissions waiting for a run slot; past it the
	// server sheds load with 429. 0 means 64; negative means no queue
	// at all (every slot-less submission is shed immediately).
	QueueDepth int
	// JobTimeout is the per-job wall-clock budget applied to every run;
	// requests may lower it per-submission but never raise it. 0 means
	// no budget.
	JobTimeout time.Duration
	// RetryAfter is the hint returned with 429/503; 0 means 1s.
	RetryAfter time.Duration
	// MaxJobs rejects specs that expand past this many jobs; 0 means
	// 10000.
	MaxJobs int
	// Runner overrides the experiment runner (tests); nil means
	// sweep.ExperimentRunner.
	Runner sweep.Runner
	// FaultRunner overrides the fault-campaign cell runner (tests); nil
	// means fault.NewCellRunner.
	FaultRunner func(fault.CampaignConfig) sweep.Runner
	// Worker and WorkerID are ignored: a server behind cluster.Router
	// needs no surface of its own.
	//
	// Deprecated: they enabled the p99 rebalancer's worker API, which is
	// gone. The fields stay only because the frozen benchmark/ module
	// sets them; ROADMAP direction 1 deletes them.
	Worker   bool
	WorkerID string
}

func (o Options) runner() sweep.Runner {
	if o.Runner != nil {
		return o.Runner
	}
	return sweep.ExperimentRunner
}

func (o Options) faultRunner(cfg fault.CampaignConfig) sweep.Runner {
	if o.FaultRunner != nil {
		return o.FaultRunner(cfg)
	}
	return fault.NewCellRunner(cfg)
}

// Response is the result document of one request, shared verbatim by
// every coalesced waiter (the per-waiter Coalesced flag is set on a
// copy).
type Response struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// Cache summarizes where the jobs came from: "hit" (all from the
	// store), "miss" (all executed), or "partial".
	Cache string `json:"cache"`
	// Coalesced marks a waiter that attached to an identical in-flight
	// run instead of starting its own.
	Coalesced bool `json:"coalesced,omitempty"`
	Jobs      int  `json:"jobs"`
	Executed  int  `json:"executed"`
	CacheHits int  `json:"cache_hits"`
	Failed    int  `json:"failed,omitempty"`
	// WallMS is the flight's end-to-end latency (the first submitter's
	// view; coalesced waiters waited for some suffix of it).
	WallMS float64 `json:"wall_ms"`
	// Tables holds the merged result tables in the requested format,
	// one per input spec (experiment and sweep kinds).
	Tables []string `json:"tables,omitempty"`
	// Report is the rendered resilience report (fault kind).
	Report string `json:"report,omitempty"`
	// SilentViolations lists silent divergences in detectable fault
	// classes — each one is an oracle hole (fault kind).
	SilentViolations []string `json:"silent_violations,omitempty"`
	// Failures lists failed jobs (first error lines) when Failed > 0.
	Failures []string `json:"failures,omitempty"`
	// Profile is the path of the request's miss-ratio-curve document
	// (requests submitted with "profile": true).
	Profile string `json:"profile,omitempty"`
	Error   string `json:"error,omitempty"`
}

// JobStatus is the GET /v1/jobs/{id} document.
type JobStatus struct {
	ID        string    `json:"id"`
	Status    string    `json:"status"` // "running" or "done"
	HTTPCode  int       `json:"http_code,omitempty"`
	Result    *Response `json:"result,omitempty"`
	EventsURL string    `json:"events_url"`
}

// doneCap bounds the completed-flight registry (event replay and
// GET /v1/jobs after completion); the oldest entries are evicted FIFO.
const doneCap = 1024

// Server is the daemon: stateless HTTP handlers over one shared store,
// admission controller, and flight table.
type Server struct {
	opts    Options
	metrics *Metrics
	admit   *admission
	mux     *http.ServeMux

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu        sync.Mutex
	draining  bool
	flights   map[string]*flight // active, by request id
	done      map[string]*flight // completed, by request id
	doneOrder []string

	// pauseMu guards the pause gate (see Pause). Separate from mu:
	// paused requests block on the gate channel, and they must never
	// block holding the flight-table lock.
	pauseMu sync.Mutex
	pauseCh chan struct{} // non-nil while paused; closed by Resume
}

// New builds a server.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 2
	}
	if opts.QueueDepth == 0 {
		opts.QueueDepth = 64
	} else if opts.QueueDepth < 0 {
		opts.QueueDepth = 0
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 10000
	}
	if opts.Store == nil {
		opts.Store = sweep.NewMemStore()
	}
	// Every store access — fast-path probes, engine flights, profile
	// docs — goes through the quarantine guard so a probe's
	// read-validate-quarantine can never race a concurrent Put of the
	// same key (see guard.go).
	opts.Store = newStoreGuard(opts.Store)
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:    opts,
		metrics: newMetrics(),
		admit:   newAdmission(opts.MaxInFlight, opts.QueueDepth),
		baseCtx: ctx,
		stop:    cancel,
		flights: map[string]*flight{},
		done:    map[string]*flight{},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/profile/{id}", s.handleProfile)
	s.mux = mux
	return s
}

// Metrics exposes the server's counters (/metrics serves the rendered
// form; tests and benchmark/ read these directly).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Handler returns the daemon's HTTP handler with request accounting
// attached. The pause gate sits in front of everything — including
// /healthz — so a paused worker presents the SIGSTOP profile: the
// listener accepts, then nothing answers until Resume (or the client
// gives up). That is exactly the silence the router's attempt timeout
// is built to survive.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ch := s.pauseGate(); ch != nil {
			select {
			case <-ch:
			case <-r.Context().Done():
				return
			case <-s.baseCtx.Done():
				return
			}
		}
		rec := &metrics.StatusRecorder{ResponseWriter: w}
		s.mux.ServeHTTP(rec, r)
		s.metrics.requests.Inc(rec.Code())
	})
}

// Pause freezes the worker: every request accepted from now on blocks
// until Resume. Idempotent. Chaos-campaign machinery — the process
// fault classes pause and resume workers between requests.
func (s *Server) Pause() {
	s.pauseMu.Lock()
	defer s.pauseMu.Unlock()
	if s.pauseCh == nil {
		s.pauseCh = make(chan struct{})
	}
}

// Resume releases every request blocked by Pause. Idempotent.
func (s *Server) Resume() {
	s.pauseMu.Lock()
	defer s.pauseMu.Unlock()
	if s.pauseCh != nil {
		close(s.pauseCh)
		s.pauseCh = nil
	}
}

// Paused reports whether the worker is currently frozen.
func (s *Server) Paused() bool {
	s.pauseMu.Lock()
	defer s.pauseMu.Unlock()
	return s.pauseCh != nil
}

func (s *Server) pauseGate() chan struct{} {
	s.pauseMu.Lock()
	defer s.pauseMu.Unlock()
	return s.pauseCh
}

// Shutdown drains the server: new submissions are refused with 503,
// queued and running flights are given until ctx expires to finish,
// and past the deadline the engines are cancelled — dispatch stops,
// in-flight jobs complete and land in the store, so interrupted sweeps
// resume from it. It returns ctx.Err() when the deadline
// forced a cancellation, nil on a clean drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.stop()
		return nil
	case <-ctx.Done():
		s.stop()
		<-done
		return ctx.Err()
	}
}

// wallNow reads the wall clock for latency accounting only; no
// simulation result ever depends on it.
func wallNow() time.Time {
	//lint:ignore observability-only wall time; results never depend on it
	return time.Now()
}

// getOrStart is the singleflight gate: attach to an active identical
// flight, or start a new one. The flight runs under the server's base
// context, so one waiter disconnecting never cancels the others' work.
func (s *Server) getOrStart(req *request) (f *flight, coalesced bool, err error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, false, errDraining
	}
	if f, ok := s.flights[req.id]; ok {
		s.mu.Unlock()
		s.metrics.coalesced.Inc()
		return f, true, nil
	}
	f = newFlight(req)
	s.flights[req.id] = f
	s.wg.Add(1)
	s.mu.Unlock()
	go s.runFlight(f)
	return f, false, nil
}

var errDraining = errors.New("serve: shutting down")

// runFlight executes one flight to completion and publishes the result.
func (s *Server) runFlight(f *flight) {
	defer s.wg.Done()
	f.resp, f.code = s.execute(f)
	s.mu.Lock()
	delete(s.flights, f.id)
	s.done[f.id] = f
	s.doneOrder = append(s.doneOrder, f.id)
	for len(s.doneOrder) > doneCap {
		delete(s.done, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
	s.mu.Unlock()
	// done closes before the hub: an event stream that drains the hub is
	// then guaranteed to see the flight as finished and emit its terminal
	// frame.
	close(f.done)
	f.hub.Close()
}

// execute runs a flight's request: answered from the store, or by an
// admitted engine run.
func (s *Server) execute(f *flight) (Response, int) {
	req := f.req
	resp := Response{ID: req.id, Kind: req.spec.Kind}
	start := wallNow()
	eng := sweep.New(sweep.Options{
		Workers:    s.opts.Workers,
		Store:      s.opts.Store,
		Runner:     req.runner,
		Sink:       f.hub,
		JobTimeout: req.timeout,
	})

	// The probe is the answer: when every job is in the shared store the
	// Outcome comes back without consuming an execution slot. A probe that
	// quarantines a corrupt entry, or fails, reports a miss, which routes
	// the request through the engine so the damaged cell transparently
	// re-runs (and a store that stays broken is reported by that run). A
	// profile request is only store-servable when the curve doc is
	// memoized too; otherwise it takes the engine path so the profile pass
	// below runs under an admission slot.
	var out *sweep.Outcome
	hit := false
	if !req.spec.Profile || s.storeHasProfile(req.id) {
		out, hit, _ = eng.Lookup(req.specs)
	}
	var err error
	if hit {
		s.metrics.storeServed.Inc()
	} else {
		release, aerr := s.admit.acquire(s.baseCtx)
		switch {
		case errors.Is(aerr, errOverload):
			resp.Error = "server overloaded: admission queue full"
			return resp, http.StatusTooManyRequests
		case aerr != nil:
			resp.Error = "server shutting down"
			return resp, http.StatusServiceUnavailable
		}
		defer release()
		s.metrics.engineRuns.Inc()
		out, err = eng.Run(s.baseCtx, req.specs)
	}
	resp.WallMS = float64(wallNow().Sub(start)) / float64(time.Millisecond)

	var failures *sweep.FailureSummary
	switch {
	case errors.Is(err, context.Canceled):
		resp.Error = "interrupted by shutdown; completed jobs are stored and a retry resumes from them"
		return resp, http.StatusServiceUnavailable
	case errors.As(err, &failures):
		// Per-job failures: report them all; successful jobs are in the
		// store, so a retry re-runs only what failed.
	case err != nil:
		resp.Error = err.Error()
		return resp, http.StatusInternalServerError
	}

	resp.Jobs = len(out.Jobs)
	resp.Executed = out.Executed
	resp.CacheHits = out.CacheHits
	resp.Failed = len(out.Failed)
	switch {
	case out.Executed == 0 && len(out.Failed) == 0:
		resp.Cache = "hit"
	case out.CacheHits == 0:
		resp.Cache = "miss"
	default:
		resp.Cache = "partial"
	}
	for _, jf := range out.Failed {
		line, _, _ := strings.Cut(jf.Err.Error(), "\n")
		resp.Failures = append(resp.Failures,
			fmt.Sprintf("job %d (%s seed=%d scale=%d): %s",
				jf.Job.Index, jf.Job.Spec.Experiment, jf.Job.Spec.Seed, jf.Job.Spec.Scale, line))
	}

	silent := 0
	if req.fault != nil && len(out.Failed) == 0 {
		report, rerr := fault.RenderReport(*req.fault, out, req.spec.Format)
		if rerr != nil {
			resp.Error = rerr.Error()
			return resp, http.StatusInternalServerError
		}
		resp.Report = report
		bad, verr := fault.SilentViolations(out)
		if verr != nil {
			resp.Error = verr.Error()
			return resp, http.StatusInternalServerError
		}
		resp.SilentViolations = bad
		silent = len(bad)
	} else if req.fault == nil {
		for _, tb := range out.Tables {
			if tb == nil {
				resp.Tables = append(resp.Tables, "")
				continue
			}
			resp.Tables = append(resp.Tables, tb.Render(req.spec.Format))
		}
	}

	if req.spec.Profile && len(out.Failed) == 0 {
		// Build (or find) the request's miss-ratio-curve doc. On the
		// store fast path this is a pure lookup — storeHasProfile gated
		// the Lookup above; on the engine path the pass runs under the
		// admission slot still held here.
		if perr := s.ensureProfile(req); perr != nil {
			resp.Error = perr.Error()
			return resp, http.StatusInternalServerError
		}
		resp.Profile = "/v1/profile/" + req.id
	}

	var walls []time.Duration
	for _, jr := range out.Jobs {
		if jr.Table != nil {
			walls = append(walls, jr.Wall)
		}
	}
	s.metrics.observeOutcome(out.Executed, out.CacheHits, len(out.Failed), walls, silent)

	if len(out.Failed) > 0 {
		resp.Error = fmt.Sprintf("%d job(s) failed", len(out.Failed))
		return resp, http.StatusInternalServerError
	}
	return resp, http.StatusOK
}

// lookup finds a flight, active or completed.
func (s *Server) lookup(id string) *flight {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.flights[id]; ok {
		return f
	}
	return s.done[id]
}

// --- HTTP handlers ---

// maxSpecBytes bounds a request body; a spec is a few hundred bytes.
const maxSpecBytes = 1 << 20

func (s *Server) decodeSpec(w http.ResponseWriter, r *http.Request) (*request, bool) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("bad spec: %v", err))
		return nil, false
	}
	req, err := normalize(spec, s.opts)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid spec: %v", err))
		return nil, false
	}
	return req, true
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	cluster.WriteError(w, code, s.opts.RetryAfter, msg)
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	cluster.SetRetryAfter(w.Header(), code, s.opts.RetryAfter)
	// Marshal first and declare the exact length: a response bigger than
	// the server's write buffer would otherwise go out chunked, and a
	// mid-body connection cut would then look like a clean short read to
	// a length-blind consumer. With Content-Length on the wire, the
	// router's proxy detects the stump and fails over.
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	data = append(data, '\n')
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(code)
	w.Write(data)
}

// handleRun is the synchronous door: submit, wait, answer.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeSpec(w, r)
	if !ok {
		return
	}
	f, coalesced, err := s.getOrStart(req)
	if err != nil {
		s.writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	select {
	case <-f.done:
	case <-r.Context().Done():
		// The client went away; the flight keeps running for any other
		// waiter and lands in the store either way.
		return
	}
	resp := f.resp
	resp.Coalesced = coalesced
	s.writeJSON(w, f.code, resp)
}

// handleSubmit is the asynchronous door: accept, return the id, let the
// client poll or stream.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeSpec(w, r)
	if !ok {
		return
	}
	f, coalesced, err := s.getOrStart(req)
	if err != nil {
		s.writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	status := JobStatus{
		ID:        f.id,
		Status:    "running",
		EventsURL: "/v1/jobs/" + f.id + "/events",
	}
	if f.finished() {
		status.Status = "done"
		status.HTTPCode = f.code
		resp := f.resp
		resp.Coalesced = coalesced
		status.Result = &resp
		s.writeJSON(w, http.StatusOK, status)
		return
	}
	s.writeJSON(w, http.StatusAccepted, status)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	f := s.lookup(id)
	if f == nil {
		s.writeError(w, http.StatusNotFound, "unknown job id "+id)
		return
	}
	status := JobStatus{ID: f.id, Status: "running", EventsURL: "/v1/jobs/" + f.id + "/events"}
	if f.finished() {
		status.Status = "done"
		status.HTTPCode = f.code
		resp := f.resp
		status.Result = &resp
	}
	s.writeJSON(w, http.StatusOK, status)
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, listExperiments())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	active := len(s.flights)
	s.mu.Unlock()
	inFlight, queued := s.admit.depths()
	doc := map[string]any{
		"status":   "ok",
		"flights":  active,
		"inflight": inFlight,
		"queued":   queued,
	}
	code := http.StatusOK
	if draining {
		doc["status"] = "draining"
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, doc)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	inFlight, queued := s.admit.depths()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, s.metrics.Render(inFlight, queued))
}
