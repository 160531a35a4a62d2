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
	// Workers declares the fleet, which is fixed for the router's life.
	// At least one worker is required; ids must be unique and stable
	// (they feed the rendezvous hash).
	Workers []Worker
	// RequestID computes the content-hash request id for a submission
	// body — injected (cmd/mimdrouter wires serve.ComputeRequestID) so
	// this package never imports the serving layer.
	RequestID func(body []byte) (string, error)
	// Client proxies requests; nil means a client with no overall
	// timeout (SSE streams are long-lived).
	Client *http.Client
	// RetryAfter is the hint returned with 503 when every candidate
	// failed; 0 means 1s.
	RetryAfter time.Duration

	// HotP99MS, MinSamples and PollInterval are ignored.
	//
	// Deprecated: they tuned the p99 rebalancer, which is gone. The
	// fields stay only because the frozen benchmark/ module sets them;
	// ROADMAP direction 1 deletes them.
	HotP99MS     float64
	MinSamples   int64
	PollInterval time.Duration

	// AttemptTimeout bounds how long one proxy attempt may wait for
	// response *headers* before the router cancels it and fails over —
	// the defense against a paused (accepted-but-silent) worker. It
	// never cuts a stream that has started answering. 0 disables.
	AttemptTimeout time.Duration
	// Journal, when set, records begin/done per submission so a router
	// restart resumes in-flight work (see ResumePending).
	Journal *Journal
}

func (o Options) withDefaults() Options {
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	return o
}

// Router is the shard-manager tier: it proxies each request down its
// shard's rendezvous ranking of the fleet. It keeps no state about
// workers between requests, so a request's route depends only on its
// shard and on what the workers answer it.
type Router struct {
	opts     Options
	ids      []string          // the fleet's ids, in declaration order
	urls     map[string]string // worker id -> URL
	metrics  *Metrics
	mux      *http.ServeMux
	draining atomic.Bool
	inflight sync.WaitGroup
}

// New builds a router over the declared fleet.
func New(opts Options) (*Router, error) {
	opts = opts.withDefaults()
	if opts.RequestID == nil {
		return nil, fmt.Errorf("cluster: Options.RequestID is required")
	}
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("cluster: the fleet needs at least one worker")
	}
	r := &Router{opts: opts, urls: make(map[string]string, len(opts.Workers)), metrics: newMetrics()}
	for _, w := range opts.Workers {
		if w.ID == "" || w.URL == "" {
			return nil, fmt.Errorf("cluster: worker needs both id and url, got %+v", w)
		}
		if _, dup := r.urls[w.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate worker id %q", w.ID)
		}
		r.ids = append(r.ids, w.ID)
		r.urls[w.ID] = w.URL
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

// Metrics exposes the router's counters.
func (r *Router) Metrics() *Metrics { return r.metrics }

// Handler returns the router's HTTP handler with response-code
// accounting attached.
func (r *Router) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rec := &metrics.StatusRecorder{ResponseWriter: w}
		r.mux.ServeHTTP(rec, req)
		r.metrics.requests.Inc(rec.Code())
	})
}

// Start does nothing: the router runs no background work.
//
// Deprecated: the health prober is gone. The method stays only because
// the frozen benchmark/ module calls it; ROADMAP direction 1 deletes it.
func (r *Router) Start(context.Context) {}

// maxBodyBytes bounds a submission body (a spec is a few hundred bytes).
const maxBodyBytes = 1 << 20

// handleSubmit routes POST /v1/run and POST /v1/jobs: compute the
// content-hash id, map it to a shard, and proxy to the shard's owner.
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
	shard := ShardOf(id, DefaultNumShards)
	if j := r.opts.Journal; j != nil {
		// Journal before the first proxy byte moves: a crash anywhere
		// past this point leaves a resumable begin record. Done is
		// written once the client has a definitive answer — including a
		// shed or an explicit error frame, after which the client owns
		// the retry. A submission that cannot be journaled is shed: it
		// would run with no durable record.
		if err := j.Begin(id, shard, body); err != nil {
			r.writeError(w, http.StatusServiceUnavailable, "journal: "+err.Error())
			return
		}
		defer j.Done(id)
	}
	r.proxyToShard(w, req, shard, body)
}

// handleByID routes GET /v1/jobs/{id} and GET /v1/jobs/{id}/events by
// the id already embedded in the path — the same shard mapping the
// submission used, so polls and event streams reach the worker that ran
// the flight (proxyToShard walks past a worker that answers 404, which
// after a failover is the owner the flight never reached).
func (r *Router) handleByID(w http.ResponseWriter, req *http.Request) {
	r.proxyToShard(w, req, ShardOf(req.PathValue("id"), DefaultNumShards), nil)
}

// handleExperiments proxies the registry listing to shard 0's ranking.
func (r *Router) handleExperiments(w http.ResponseWriter, req *http.Request) {
	r.proxyToShard(w, req, 0, nil)
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

// proxyToShard walks the shard's rendezvous ranking of the whole fleet,
// moving to the next candidate on a connection error, an attempt
// timeout, a gateway-class 5xx or a short body. Non-streaming responses
// are fully buffered before the first byte reaches the client, so even a
// mid-body failure can still fail over; a stream that has started
// relaying cannot, and gets an explicit terminal error frame instead. A
// body-less read by id also moves on past a candidate that answers 404
// (see below). When every candidate fails, the router sheds with its
// own 503 + Retry-After.
func (r *Router) proxyToShard(w http.ResponseWriter, req *http.Request, shard int, body []byte) {
	r.inflight.Add(1)
	defer r.inflight.Done()
	cands := Rank(r.ids, shard)
	for i, id := range cands {
		fail := func() {
			if i+1 < len(cands) {
				r.metrics.failovers.Inc()
			}
		}
		target := r.urls[id]
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
			// The worker is unreachable, or silent past the attempt
			// timeout.
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
			// that ran the submission, which after a failover is not the
			// shard's owner. A 404 here means "not held by this worker" —
			// a completed, healthy answer that counts no failover. The 404
			// is relayed only from the last candidate; if the rest fail,
			// the holder may be among them and the client gets the
			// retryable 503 instead.
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
			r.metrics.proxied.Inc(id)
			copyHeader(w.Header(), resp.Header, "Content-Type", "Retry-After", "Cache-Control")
			w.WriteHeader(resp.StatusCode)
			w.Write(data)
			return
		}
		r.metrics.proxied.Inc(id)
		r.relay(w, resp)
		return
	}
	r.metrics.noWorker.Inc()
	r.writeError(w, http.StatusServiceUnavailable, "every worker failed for shard "+strconv.Itoa(shard))
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
		// "end" frame and resubmit; the resubmission fails over to the
		// next candidate if the worker is gone.
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

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"workers\":%d}\n", len(r.ids))
}

func (r *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, r.metrics.Render(0, 0, 0))
}

// handleCluster lists the static fleet and the shard space.
func (r *Router) handleCluster(w http.ResponseWriter, _ *http.Request) {
	doc := struct {
		NumShards int      `json:"num_shards"`
		Workers   []Worker `json:"workers"`
	}{DefaultNumShards, r.opts.Workers}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}
