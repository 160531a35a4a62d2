package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Options configures a Router.
type Options struct {
	// Workers declares the fleet. At least one worker is required; ids
	// must be unique and stable (they feed the rendezvous hash).
	Workers []Worker
	// NumShards sizes the virtual shard space; 0 means DefaultNumShards.
	// Every worker must be started with the same value.
	NumShards int
	// RequestID computes the content-hash request id for a submission
	// body — injected (cmd/mimdrouter wires serve.ComputeRequestID) so
	// this package never imports the serving layer.
	RequestID func(body []byte) (string, error)
	// Client proxies requests; nil means a client with no overall
	// timeout (SSE streams are long-lived).
	Client *http.Client
	// RetryAfter is the hint returned with 503 when no worker is
	// available; 0 means 1s.
	RetryAfter time.Duration

	// HotP99MS trips a shard's replica when its windowed p99 crosses it;
	// 0 means 250ms.
	HotP99MS float64
	// RecoverP99MS retires the replica once p99 stays at or under it;
	// 0 means HotP99MS/4.
	RecoverP99MS float64
	// MinSamples is the smallest window that can trip a replica; 0
	// means 16.
	MinSamples int64
	// HotPolls is how many consecutive hot polls trip a replica; 0
	// means 1.
	HotPolls int
	// CoolPolls is how many consecutive cool polls retire one; 0 means 3
	// (the "sustained recovery" hysteresis).
	CoolPolls int
	// PollInterval paces the rebalancer loop; 0 means 2s.
	PollInterval time.Duration
	// ProbeInterval paces the health prober; 0 means 1s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health or stats request; 0 means 500ms.
	ProbeTimeout time.Duration
	// ProbeRetries is how many extra immediate attempts (with backoff)
	// one probe round makes before counting a failure; 0 means 2.
	ProbeRetries int
	// ProbeBackoff is the base delay between those attempts, doubled
	// each retry; 0 means 50ms.
	ProbeBackoff time.Duration
	// FailThreshold is how many consecutive failed probe rounds mark a
	// worker dead; 0 means 2.
	FailThreshold int

	// AttemptTimeout bounds how long one proxy attempt may wait for
	// response *headers* before the router cancels it and fails over —
	// the defense against a paused (accepted-but-silent) worker. It
	// never cuts a stream that has started answering. 0 disables.
	AttemptTimeout time.Duration
	// BreakerThreshold is how many consecutive failed requests open a
	// worker's circuit; 0 means 3.
	BreakerThreshold int
	// BreakerCooldown is how many prober rounds an open circuit waits
	// before admitting a half-open trial; 0 means 2.
	BreakerCooldown int
	// Journal, when set, records begin/done per submission so a router
	// restart resumes in-flight work (see ResumePending).
	Journal *Journal
}

func (o Options) withDefaults() Options {
	if o.NumShards <= 0 {
		o.NumShards = DefaultNumShards
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.HotP99MS <= 0 {
		o.HotP99MS = 250
	}
	if o.RecoverP99MS <= 0 {
		o.RecoverP99MS = o.HotP99MS / 4
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 16
	}
	if o.HotPolls <= 0 {
		o.HotPolls = 1
	}
	if o.CoolPolls <= 0 {
		o.CoolPolls = 3
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 2 * time.Second
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 500 * time.Millisecond
	}
	if o.ProbeRetries <= 0 {
		o.ProbeRetries = 2
	}
	if o.ProbeBackoff <= 0 {
		o.ProbeBackoff = 50 * time.Millisecond
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 2
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 2
	}
	return o
}

// shardSlot is one virtual shard's routing state: the active replica (if
// any), the rebalancer's hysteresis streaks, and a pick counter that
// alternates reads between owner and replica.
type shardSlot struct {
	mu         sync.Mutex
	replica    string
	hotStreak  int
	coolStreak int
	lastP99MS  float64
	picks      uint64
}

// Router is the shard-manager tier: it owns the membership table,
// proxies submissions to the rendezvous owner of each request's shard,
// and runs the health prober and the p99 rebalancer.
type Router struct {
	opts     Options
	members  *Membership
	metrics  *Metrics
	shards   []shardSlot
	probe    *http.Client
	mux      *http.ServeMux
	breakers *breakerSet
	draining atomic.Bool
	inflight sync.WaitGroup
}

// New builds a router over the declared fleet.
func New(opts Options) (*Router, error) {
	opts = opts.withDefaults()
	if opts.RequestID == nil {
		return nil, fmt.Errorf("cluster: Options.RequestID is required")
	}
	members, err := NewMembership(opts.Workers)
	if err != nil {
		return nil, err
	}
	r := &Router{
		opts:     opts,
		members:  members,
		metrics:  newMetrics(),
		shards:   make([]shardSlot, opts.NumShards),
		probe:    &http.Client{Timeout: opts.ProbeTimeout},
		breakers: newBreakerSet(opts.BreakerThreshold, opts.BreakerCooldown),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	mux.HandleFunc("GET /v1/cluster", r.handleCluster)
	mux.HandleFunc("GET /v1/experiments", r.handleExperiments)
	mux.HandleFunc("POST /v1/run", r.handleSubmit)
	mux.HandleFunc("POST /v1/jobs", r.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", r.handleByID)
	mux.HandleFunc("GET /v1/jobs/{id}/events", r.handleByID)
	// Profile docs shard by the same content-hash id as the submission
	// that built them, so the read lands on the worker holding the doc.
	mux.HandleFunc("GET /v1/profile/{id}", r.handleByID)
	r.mux = mux
	return r, nil
}

// Members exposes the membership table (tests and cmd/mimdrouter).
func (r *Router) Members() *Membership { return r.members }

// Metrics exposes the router's counters.
func (r *Router) Metrics() *Metrics { return r.metrics }

// NumShards returns the router's shard-space size.
func (r *Router) NumShards() int { return r.opts.NumShards }

// Handler returns the router's HTTP handler with response-code
// accounting attached.
func (r *Router) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rec := &metrics.StatusRecorder{ResponseWriter: w}
		r.mux.ServeHTTP(rec, req)
		r.metrics.requests.Inc(rec.Code())
	})
}

// Start launches the health prober and the rebalancer; both stop when
// ctx is cancelled.
func (r *Router) Start(ctx context.Context) {
	go r.probeLoop(ctx)
	go r.rebalanceLoop(ctx)
}

// maxBodyBytes bounds a submission body (a spec is a few hundred bytes).
const maxBodyBytes = 1 << 20

// handleSubmit routes POST /v1/run and POST /v1/jobs: compute the
// content-hash id, map it to a shard, and proxy to the shard's owner
// (or, for a replicated hot shard, alternate between owner and replica).
func (r *Router) handleSubmit(w http.ResponseWriter, req *http.Request) {
	if r.draining.Load() {
		r.writeError(w, http.StatusServiceUnavailable, "router draining")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	if err != nil {
		r.writeError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
		return
	}
	id, err := r.opts.RequestID(body)
	if err != nil {
		r.writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid spec: %v", err))
		return
	}
	shard := ShardOf(id, r.opts.NumShards)
	if j := r.opts.Journal; j != nil {
		// Journal before the first proxy byte moves: a crash anywhere
		// past this point leaves a resumable begin record. Done is
		// written once the client has a definitive answer — including a
		// shed or an explicit error frame, after which the client owns
		// the retry.
		j.Begin(id, shard, body)
		defer j.Done(id)
	}
	r.proxyToShard(w, req, shard, body)
}

// handleByID routes GET /v1/jobs/{id} and GET /v1/jobs/{id}/events by
// the id already embedded in the path — the same shard mapping the
// submission used, so polls and event streams reach the worker that ran
// the flight (proxyToShard walks past a replica that answers 404).
func (r *Router) handleByID(w http.ResponseWriter, req *http.Request) {
	r.proxyToShard(w, req, ShardOf(req.PathValue("id"), r.opts.NumShards), nil)
}

// handleExperiments proxies the registry listing to any alive worker.
func (r *Router) handleExperiments(w http.ResponseWriter, req *http.Request) {
	r.proxyToShard(w, req, 0, nil)
}

// candidates returns the failover-ordered worker ids for a shard. The
// first entry is the preferred target: normally the rendezvous owner,
// but when the shard has an alive replica every other pick is served by
// it — the read-spreading that relieves a hot shard. replicaRead
// reports whether the front candidate is the replica rather than the
// owner.
func (r *Router) candidates(shard int) (ids []string, replicaRead bool) {
	alive := r.members.AliveIDs()
	if len(alive) == 0 {
		return nil, false
	}
	rank := Rank(alive, shard)
	slot := &r.shards[shard]
	slot.mu.Lock()
	rep := slot.replica
	pick := slot.picks
	slot.picks++
	slot.mu.Unlock()
	if rep == "" || !r.members.Alive(rep) || rep == rank[0] || pick%2 == 0 {
		return rank, false
	}
	// Move the replica to the front, keeping the rest as failovers.
	out := make([]string, 0, len(rank))
	out = append(out, rep)
	for _, id := range rank {
		if id != rep {
			out = append(out, id)
		}
	}
	return out, true
}

// gatewayStatus reports whether a worker response should be treated as
// a failed attempt rather than relayed: 502/503/504 are "the machinery
// in front of the answer broke (or shed)", and another candidate may
// hold the answer. A 500 is the engine's own verdict and relays
// untouched — retrying a deterministic failure elsewhere just burns a
// second worker on it.
func gatewayStatus(code int) bool {
	return code == http.StatusBadGateway ||
		code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
}

// proxyToShard forwards the request to the shard's candidates in order,
// failing over (and passively marking workers down) on connection
// errors, attempt timeouts, and gateway-class 5xx responses — each of
// which also feeds the worker's circuit breaker, and open circuits are
// skipped up front. Non-streaming responses are fully buffered before
// the first byte reaches the client, so even a mid-body failure can
// still fail over; a stream that has started relaying cannot, and gets
// an explicit terminal error frame instead. A body-less read by id also
// moves on past a candidate that answers 404 (see below).
func (r *Router) proxyToShard(w http.ResponseWriter, req *http.Request, shard int, body []byte) {
	r.inflight.Add(1)
	defer r.inflight.Done()
	cands, replicaRead := r.candidates(shard)
	for i, id := range cands {
		if !r.breakers.Allow(id) {
			r.metrics.breakerSkips.Inc()
			continue
		}
		fail := func() {
			if r.breakers.OnFailure(id) {
				r.metrics.breakerOpens.Inc()
			}
			if i+1 < len(cands) {
				r.metrics.failovers.Inc()
			}
			replicaRead = false
		}
		proxied := func() {
			r.metrics.proxied.Inc(id)
			if replicaRead && i == 0 {
				r.metrics.replicaReads.Inc()
			}
		}
		target := r.members.URL(id)
		out, err := http.NewRequestWithContext(req.Context(), req.Method,
			target+req.URL.Path, bodyReader(body))
		if err != nil {
			r.writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		out.URL.RawQuery = req.URL.RawQuery
		copyHeader(out.Header, req.Header, "Content-Type", "Accept")
		resp, err := r.doAttempt(out)
		if err != nil {
			if req.Context().Err() != nil {
				// The client went away; nothing to answer.
				return
			}
			// The worker is unreachable (or silent past the attempt
			// timeout): passive failure detection. The prober notices
			// recovery.
			r.members.MarkDown(id)
			fail()
			continue
		}
		if gatewayStatus(resp.StatusCode) {
			// Never relay a gateway-class 5xx: when every candidate is
			// exhausted the loop falls through to the router's own 503
			// with a Retry-After hint, so clients see one uniform shed
			// signal instead of whatever a dying hop emitted (a bare
			// 502 carries no retry contract at all).
			resp.Body.Close()
			fail()
			continue
		}
		if body == nil && resp.StatusCode == http.StatusNotFound && i+1 < len(cands) {
			// A by-id read: flights and profile docs live only on the worker
			// that ran the submission, and a replicated shard alternates its
			// front candidate. A 404 here means "not held by this worker" —
			// a completed, healthy answer: it closes a half-open breaker's
			// trial like any success, and counts no failover or down. The
			// 404 is relayed only from the last candidate; if the rest are
			// skipped or fail, the holder may be among them and the client
			// gets the retryable 503 instead.
			r.breakers.OnSuccess(id)
			resp.Body.Close()
			continue
		}
		ct := resp.Header.Get("Content-Type")
		if !IsStreamContentType(ct) {
			data, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			// A short body is as fatal as a read error: a connection cut
			// mid-transfer can surface as a clean EOF before Content-Length
			// bytes arrived, and relaying the stump would hand the client a
			// corrupt document.
			short := resp.ContentLength > int64(len(data))
			if (rerr != nil || short) && req.Context().Err() == nil {
				// The body died under us before anything was relayed —
				// this candidate's answer is gone, but the next one's
				// isn't.
				fail()
				continue
			}
			r.breakers.OnSuccess(id)
			proxied()
			copyHeader(w.Header(), resp.Header, "Content-Type", "Retry-After", "Cache-Control")
			w.WriteHeader(resp.StatusCode)
			w.Write(data)
			return
		}
		r.breakers.OnSuccess(id)
		proxied()
		r.relay(w, resp)
		return
	}
	r.metrics.noWorker.Inc()
	r.writeError(w, http.StatusServiceUnavailable, "no worker available for shard "+strconv.Itoa(shard))
}

// doAttempt performs one proxy attempt, bounding the wait for response
// headers by AttemptTimeout when configured. The timeout only covers
// the header wait: once a worker has started answering, its stream
// lives as long as it keeps sending (the body carries the attempt's
// cancel, released on Close).
func (r *Router) doAttempt(out *http.Request) (*http.Response, error) {
	if r.opts.AttemptTimeout <= 0 {
		return r.opts.Client.Do(out)
	}
	ctx, cancel := context.WithCancel(out.Context())
	out = out.WithContext(ctx)
	type result struct {
		resp *http.Response
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		resp, err := r.opts.Client.Do(out)
		ch <- result{resp, err}
	}()
	//lint:ignore determinism the attempt timeout is wall-clock failure detection; no simulation result depends on it
	timer := time.NewTimer(r.opts.AttemptTimeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		if res.err != nil {
			cancel()
			return nil, res.err
		}
		res.resp.Body = &cancelBody{ReadCloser: res.resp.Body, cancel: cancel}
		return res.resp, nil
	case <-timer.C:
		cancel()
		if res := <-ch; res.resp != nil {
			res.resp.Body.Close()
		}
		r.metrics.attemptTimeouts.Inc()
		return nil, fmt.Errorf("cluster: no response headers within %v", r.opts.AttemptTimeout)
	}
}

// cancelBody ties an attempt's context cancel to the response body's
// lifetime.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// Drain stops accepting new submissions (they shed with 503 and a
// Retry-After hint) and waits for every in-flight relay — including
// live event streams — to finish, or for ctx to give up.
func (r *Router) Drain(ctx context.Context) error {
	r.draining.Store(true)
	done := make(chan struct{})
	go func() {
		r.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has been called.
func (r *Router) Draining() bool { return r.draining.Load() }

// ResumePending replays the journal's unfinished flights against the
// fleet: each pending submission is re-proxied to its shard (the
// content-hash id makes replay idempotent — a flight that actually
// finished before the crash is answered straight from the worker's
// store). Successfully resumed flights are compacted out of the
// journal; flights that still cannot complete stay pending for the
// next restart. Returns how many flights were resumed.
func (r *Router) ResumePending(ctx context.Context) (int, error) {
	j := r.opts.Journal
	if j == nil {
		return 0, nil
	}
	pending, err := LoadJournal(j.Path())
	if err != nil {
		return 0, err
	}
	if len(pending) == 0 {
		return 0, nil
	}
	var remaining []PendingFlight
	resumed := 0
	for _, fl := range pending {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/jobs", nil)
		if err != nil {
			remaining = append(remaining, fl)
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		rec := &resumeRecorder{header: make(http.Header)}
		r.proxyToShard(rec, req, fl.Shard, fl.Body)
		if rec.code >= 200 && rec.code < 300 {
			resumed++
			r.metrics.resumedFlights.Inc()
		} else {
			remaining = append(remaining, fl)
		}
	}
	if err := j.Compact(remaining); err != nil {
		return resumed, err
	}
	return resumed, nil
}

// resumeRecorder is the throwaway ResponseWriter a journal resume
// proxies into — nobody is waiting on the original connection anymore;
// only the outcome code matters.
type resumeRecorder struct {
	header http.Header
	code   int
}

func (r *resumeRecorder) Header() http.Header { return r.header }
func (r *resumeRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}
func (r *resumeRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return len(b), nil
}

// bodyReader wraps a buffered body for one proxy attempt (nil for GETs).
func bodyReader(body []byte) io.Reader {
	if body == nil {
		return nil
	}
	return bytes.NewReader(body)
}

// relay streams the worker's response through, flushing as bytes arrive
// so SSE frames are delivered live, while a TerminalScanner watches for
// the worker's end frame. Two upstream failures get an explicit
// terminal error frame appended: a mid-stream read error ("worker
// connection lost") and — the subtler one — a clean EOF with no end
// frame observed, which is a transport truncation however healthy it
// looked byte-by-byte.
func (r *Router) relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	ct := resp.Header.Get("Content-Type")
	copyHeader(w.Header(), resp.Header, "Content-Type", "Retry-After", "Cache-Control")
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	scan := NewTerminalScanner(ct)
	errorFrame := func(msg string) {
		// Clients distinguish this frame from the worker's own terminal
		// "end" frame and resubmit; the resubmission routes to the next
		// candidate (or the shard's replica).
		switch {
		case strings.Contains(ct, "text/event-stream"):
			fmt.Fprintf(w, "event: error\ndata: {\"error\":%q}\n\n", msg)
		case strings.Contains(ct, "application/x-ndjson"):
			fmt.Fprintf(w, "{\"event\":\"error\",\"error\":%q}\n", msg)
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			scan.Observe(buf[:n])
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err == io.EOF {
			if !scan.Terminated() {
				r.metrics.truncatedStreams.Inc()
				errorFrame("stream truncated before terminal frame")
			}
			return
		}
		if err != nil {
			errorFrame("worker connection lost")
			return
		}
	}
}

// copyHeader copies the named headers that are present in src.
func copyHeader(dst, src map[string][]string, names ...string) {
	for _, name := range names {
		if vs, ok := src[name]; ok {
			dst[name] = vs
		}
	}
}

func (r *Router) writeError(w http.ResponseWriter, code int, msg string) {
	WriteError(w, code, r.opts.RetryAfter, msg)
}

// ActiveReplicas counts shards currently routing through a replica.
func (r *Router) ActiveReplicas() int {
	n := 0
	for i := range r.shards {
		r.shards[i].mu.Lock()
		if r.shards[i].replica != "" {
			n++
		}
		r.shards[i].mu.Unlock()
	}
	return n
}

// ReplicaFor returns the shard's active replica id ("" when none) —
// observability for /v1/cluster and tests.
func (r *Router) ReplicaFor(shard int) string {
	if shard < 0 || shard >= len(r.shards) {
		return ""
	}
	r.shards[shard].mu.Lock()
	defer r.shards[shard].mu.Unlock()
	return r.shards[shard].replica
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	alive := r.members.AliveCount()
	total := len(r.members.Workers())
	status, code := "ok", http.StatusOK
	switch {
	case alive == 0:
		status, code = "down", http.StatusServiceUnavailable
	case alive < total:
		status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"status\":%q,\"alive\":%d,\"workers\":%d,\"membership_version\":%d}\n",
		status, alive, total, r.members.Version())
}

func (r *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, r.metrics.Render(r.members.AliveCount(), r.members.Version(), r.ActiveReplicas()))
}

// clusterWorker is one row of the /v1/cluster worker listing.
type clusterWorker struct {
	ID    string `json:"id"`
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
}

// clusterReplica is one row of the /v1/cluster replica listing.
type clusterReplica struct {
	Shard   int     `json:"shard"`
	Replica string  `json:"replica"`
	P99MS   float64 `json:"p99_ms"`
}

func (r *Router) handleCluster(w http.ResponseWriter, _ *http.Request) {
	workers := make([]clusterWorker, 0, len(r.members.Workers()))
	for _, wk := range r.members.Workers() {
		workers = append(workers, clusterWorker{ID: wk.ID, URL: wk.URL, Alive: r.members.Alive(wk.ID)})
	}
	var replicas []clusterReplica
	for i := range r.shards {
		r.shards[i].mu.Lock()
		if r.shards[i].replica != "" {
			replicas = append(replicas, clusterReplica{
				Shard: i, Replica: r.shards[i].replica, P99MS: r.shards[i].lastP99MS,
			})
		}
		r.shards[i].mu.Unlock()
	}
	doc := struct {
		MembershipVersion uint64           `json:"membership_version"`
		NumShards         int              `json:"num_shards"`
		Workers           []clusterWorker  `json:"workers"`
		Replicas          []clusterReplica `json:"replicas,omitempty"`
	}{r.members.Version(), r.opts.NumShards, workers, replicas}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}
