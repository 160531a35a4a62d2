package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/retry"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/workload"
)

const (
	serveFixed   = 1000  // requests after which the servers' counters are read
	serveBlock   = 250   // cluster-skewed: odd blocks send their cold specs to one shard
	servePlanLen = 16000 // more than any run reaches
	serveZipf    = 1.2
	coldShare    = 0.25
	verifyShare  = 0.10
	queueDepth   = 64
)

// Router thresholds, scaled to what two closed-loop connections can
// generate.
const (
	hotP99MS     = 30
	minSamples   = 8
	pollInterval = 500 * time.Millisecond
)

// coldExperiments are the never-seen specs: short seeded simulations.
var coldExperiments = []string{"ablation-threshold", "ablation-private", "ablation-rmwstyle", "extension-hier", "ablation-lock"}

// warmExperiments are run once in set-up and then served from the
// store, picked by a Zipf law in this order.
var warmExperiments = []string{
	"fig3-1", "fig5-1", "ablation-threshold", "fig6-1", "ablation-private", "fig6-2", "ablation-rmwstyle", "fig6-3",
	"section7-sbb", "ablation-lock", "ablation-arrayinit", "extension-hier", "ablation-barrier", "ablation-fault", "fig7-1", "ablation-mix",
}

type reqClass uint8

const (
	classWarm     reqClass = iota // POST /v1/run of a spec set-up already ran
	classCold                     // POST /v1/run of a never-seen spec
	classStream                   // POST /v1/jobs + SSE to the terminal frame, never-seen spec
	classProfiled                 // POST /v1/run with profile:true, then GET /v1/profile/{id}
)

// planned is one request of the plan.
type planned struct {
	class      reqClass
	body       string
	warm       int    // classWarm: index into warmExperiments
	experiment string // never-seen classes: what to compare a verified answer with
	specSeed   uint64
	verify     bool // compare the answer with a direct sweep.ExperimentRunner call
}

func specBody(experiment string, seed uint64, profile bool) string {
	if profile {
		return fmt.Sprintf(`{"kind":"experiment","experiment":%q,"seeds":[%d],"profile":true}`, experiment, seed)
	}
	return fmt.Sprintf(`{"kind":"experiment","experiment":%q,"seeds":[%d]}`, experiment, seed)
}

// buildPlan draws n requests from seed. Every tenth never-seen request
// is streamed and every tenth, offset five, is profiled. With shardOf
// set (cluster-skewed), the never-seen specs of odd blocks are drawn
// from seeds whose request id lands on one shard, the shard of the
// plan's first never-seen spec; everything else, including every body
// of the even blocks, is what buildPlan draws without it.
func buildPlan(seed uint64, n, block int, shardOf func(body string) int) []planned {
	r := workload.NewRNG(seed) // splitmix64, as every generator in the repository
	cdf := zipfCDF(len(warmExperiments), serveZipf)
	base := seed*1_000_000 + 1000
	plan := make([]planned, n)
	cold, hotNext, hotShard := 0, uint64(0), -1
	for i := range plan {
		u, pick, check := r.Float64(), r.Float64(), r.Float64()
		if u >= coldShare {
			w := min(sort.SearchFloat64s(cdf, pick), len(warmExperiments)-1)
			plan[i] = planned{class: classWarm, warm: w, body: specBody(warmExperiments[w], seed, false)}
			continue
		}
		p := planned{class: classCold, verify: check < verifyShare, specSeed: base + uint64(cold)}
		p.experiment = coldExperiments[int(pick*float64(len(coldExperiments)))]
		switch cold % 10 {
		case 0:
			p.class = classStream
		case 5:
			p.class, p.experiment = classProfiled, "ablation-threshold"
		}
		profile := p.class == classProfiled
		p.body = specBody(p.experiment, p.specSeed, profile)
		if shardOf != nil {
			if hotShard < 0 {
				hotShard = shardOf(p.body)
			}
			if (i/block)%2 == 1 {
				for {
					p.specSeed = base + 500_000 + hotNext
					p.body = specBody(p.experiment, p.specSeed, profile)
					hotNext++
					if shardOf(p.body) == hotShard {
						break
					}
				}
			}
		}
		plan[i] = p
		cold++
	}
	return plan
}

// stack is the system under test: one server, or a router over two
// workers.
type stack struct {
	base    string
	client  *http.Client
	servers []*serve.Server
	stores  []*tracedStore
	router  *cluster.Router
	warm    [][]string // set-up's answer to each warm spec
	stop    []func()
	// misrouted counts follow-up GETs answered 404 and retried.
	misrouted atomic.Int64
}

func (st *stack) close() {
	st.client.CloseIdleConnections()
	for i := len(st.stop) - 1; i >= 0; i-- {
		st.stop[i]()
	}
}

// listen serves h on a loopback port and returns its URL.
func (st *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) // returns once Shutdown is called
	}()
	st.stop = append(st.stop, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if hs.Shutdown(ctx) != nil {
			hs.Close()
		}
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// boot starts the stack on fresh stores and runs every warm spec once
// through its front door.
func boot(rc *runCtx, clustered bool) (*stack, error) {
	st := &stack{client: &http.Client{Transport: &http.Transport{
		MaxIdleConns: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU(),
	}}}
	workers := 1
	if clustered {
		workers = 2
	}
	var fleet []cluster.Worker
	for i := 0; i < workers; i++ {
		dir, err := rc.tempDir("store")
		if err != nil {
			return st, err
		}
		ds, err := sweep.OpenDirStore(dir)
		if err != nil {
			return st, err
		}
		opts := serve.Options{Store: ds, MaxInFlight: runtime.NumCPU(), QueueDepth: queueDepth}
		if clustered {
			opts.Worker, opts.WorkerID = true, fmt.Sprintf("w%d", i+1)
		}
		if rc.traced() {
			// serve always sets the engine's Runner, so decorating
			// Options.Runner leaves its path unchanged.
			ts := &tracedStore{inner: ds, tr: rc.tr}
			st.stores = append(st.stores, ts)
			opts.Store, opts.Runner = ts, newTracedRunners(rc.tr).run
		}
		srv := serve.New(opts)
		st.servers = append(st.servers, srv)
		st.stop = append(st.stop, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		h := srv.Handler()
		if rc.traced() {
			h = traceHandler(rc.tr, h)
		}
		url, err := st.listen(h)
		if err != nil {
			return st, err
		}
		st.base = url
		fleet = append(fleet, cluster.Worker{ID: opts.WorkerID, URL: url})
	}
	if clustered {
		ropts := cluster.Options{
			Workers:   fleet,
			RequestID: func(body []byte) (string, error) { return serve.ComputeRequestID(body, serve.Options{}) },
			HotP99MS:  hotP99MS, MinSamples: minSamples, PollInterval: pollInterval,
		}
		if rc.traced() {
			proxy := http.DefaultTransport.(*http.Transport).Clone()
			st.stop = append(st.stop, proxy.CloseIdleConnections)
			ropts.Client = &http.Client{Transport: &tracedTransport{tr: rc.tr, next: proxy}}
		}
		router, err := cluster.New(ropts)
		if err != nil {
			return st, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		st.stop = append(st.stop, cancel)
		router.Start(ctx)
		st.router = router
		if st.base, err = st.listen(router.Handler()); err != nil {
			return st, err
		}
	}
	for _, id := range warmExperiments {
		resp, _, err := st.post("/v1/run", specBody(id, rc.seed, false))
		if err != nil {
			return st, fmt.Errorf("pre-warming %s: %w", id, err)
		}
		st.warm = append(st.warm, resp.Tables)
	}
	return st, nil
}

// retryPolicy is the repository's own policy, seeded from the request
// index. A shed waits as long as its Retry-After says; the base delay is
// for a misrouted follow-up.
func retryPolicy(i int) retry.Policy {
	return retry.Policy{Base: 2 * time.Millisecond, Cap: 100 * time.Millisecond, MaxAttempts: 20, Seed: uint64(i)}
}

// do sends one request and reads the whole answer. Only 200 (and 202
// for a submission) is a success. A shed (429, or 503 with Retry-After)
// is retried and counted. So is a 404 on a GET by id: once the router
// has given a shard a replica it alternates between owner and replica
// per request, and a follow-up can land on the worker that did not take
// the submission; the next try reaches the other one.
func (st *stack) do(method, path, body, accept string, seed int) (data []byte, contentType string, sheds int, err error) {
	err = retry.Do(context.Background(), retryPolicy(seed), func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, method, st.base+path, strings.NewReader(body))
		if err != nil {
			return retry.Permanent(err)
		}
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := st.client.Do(req)
		if err != nil {
			return retry.Permanent(err)
		}
		defer resp.Body.Close()
		data, err = io.ReadAll(resp.Body)
		if err != nil {
			return retry.Permanent(err)
		}
		contentType = resp.Header.Get("Content-Type")
		switch resp.StatusCode {
		case http.StatusOK, http.StatusAccepted:
			return nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			sheds++
			secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			if secs < 1 {
				return retry.Permanent(fmt.Errorf("%s %s: status %d without Retry-After", method, path, resp.StatusCode))
			}
			return &retry.AfterError{After: time.Duration(secs) * time.Second, Err: fmt.Errorf("%s %s: still shed (%d)", method, path, resp.StatusCode)}
		case http.StatusNotFound:
			if method != http.MethodGet {
				return retry.Permanent(fmt.Errorf("%s %s: status 404", method, path))
			}
			st.misrouted.Add(1)
			return fmt.Errorf("%s %s: still 404: %s", method, path, bytes.TrimSpace(data))
		default:
			return retry.Permanent(fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data)))
		}
	})
	return data, contentType, sheds, err
}

func (st *stack) post(path, body string) (serve.Response, int, error) {
	var resp serve.Response
	data, _, sheds, err := st.do(http.MethodPost, path, body, "", 0)
	if err == nil {
		err = json.Unmarshal(data, &resp)
	}
	return resp, sheds, err
}

// sample is one request as its client saw it.
type sample struct {
	index  int
	class  reqClass
	ms     float64
	sheds  int
	tables []string
	err    error
}

// issue performs plan[i] and times it the way its class is defined.
func (st *stack) issue(tr *tracer, i int, p planned) sample {
	s := sample{index: i, class: p.class}
	key := "c:" + p.body
	id := tr.begin("client.request", p.body, 0, key)
	defer tr.end(id, key)
	start := now()
	switch p.class {
	case classWarm, classCold:
		var resp serve.Response
		resp, s.sheds, s.err = st.post("/v1/run", p.body)
		s.ms, s.tables = ms(since(start)), resp.Tables

	case classProfiled:
		var resp serve.Response
		resp, s.sheds, s.err = st.post("/v1/run", p.body)
		if s.err == nil && resp.Profile == "" {
			s.err = fmt.Errorf("profiled request %s answered without a profile path", resp.ID)
		}
		if s.err == nil {
			pid := tr.begin("client.request", resp.Profile, 0, "c:"+resp.Profile)
			_, _, _, s.err = st.do(http.MethodGet, resp.Profile, "", "", i)
			tr.end(pid, "c:"+resp.Profile)
		}
		s.ms, s.tables = ms(since(start)), resp.Tables

	case classStream:
		var status serve.JobStatus
		data, _, sheds, err := st.do(http.MethodPost, "/v1/jobs", p.body, "", i)
		s.sheds = sheds
		if err == nil {
			err = json.Unmarshal(data, &status)
		}
		if err == nil {
			var ct string
			data, ct, _, err = st.do(http.MethodGet, status.EventsURL, "", "text/event-stream", i)
			scan := cluster.NewTerminalScanner(ct)
			scan.Observe(data)
			if err == nil && !scan.Terminated() {
				err = fmt.Errorf("stream %s ended without a terminal frame", status.ID)
			}
		}
		s.ms = ms(since(start)) // submit to terminal frame
		if err == nil && p.verify {
			// Fetch the finished job's tables, outside the timed interval.
			if data, _, _, err = st.do(http.MethodGet, "/v1/jobs/"+status.ID, "", "", i); err == nil {
				err = json.Unmarshal(data, &status)
			}
			if err == nil && status.Result != nil {
				s.tables = status.Result.Tables
			}
		}
		s.err = err
	}
	return s
}

// drive sends plan[from:to] from nproc closed-loop clients, each taking
// the next unsent request when its previous one completes. With a
// deadline, clients also stop once it has passed.
func (st *stack) drive(tr *tracer, plan []planned, block, from, to int, deadline time.Time) []sample {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	next.Store(int64(from))
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= to || (!deadline.IsZero() && !now().Before(deadline)) {
					return
				}
				// Odd blocks are recorded, even ones not: the gap is the
				// tracing overhead.
				tr.pause((i/block)%2 == 0)
				s := st.issue(tr, i, plan[i])
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	tr.pause(false)
	return samples
}

func runServeMixed(rc *runCtx) error    { return runServing(rc, false) }
func runClusterSkewed(rc *runCtx) error { return runServing(rc, true) }

func runServing(rc *runCtx, clustered bool) error {
	var (
		st    *stack
		plan  []planned
		block = rc.n(serveBlock, 15)
	)
	err := rc.setupDiscarding(func() error {
		var shardOf func(string) int
		if clustered {
			shardOf = func(body string) int {
				id, err := serve.ComputeRequestID([]byte(body), serve.Options{})
				if err != nil {
					panic("benchmark: plan drew an invalid spec: " + err.Error())
				}
				return cluster.ShardOf(id, cluster.DefaultNumShards)
			}
		}
		plan = buildPlan(rc.seed, rc.n(servePlanLen, 400), block, shardOf)
		var err error
		st, err = boot(rc, clustered)
		return err
	}, func() { st.close() })
	if st != nil {
		defer st.close()
	}
	if err != nil {
		return err
	}

	// Timed section: a fixed count first, so the servers' counters are
	// read after exactly the same requests in every run, then on until
	// the seconds are up.
	fixed := rc.n(serveFixed, 60)
	start := now()
	samples := st.drive(rc.tr, plan, block, 0, fixed, time.Time{})
	counters := st.serverCounters()
	samples = append(samples, st.drive(rc.tr, plan, block, fixed, len(plan), rc.deadline(start))...)
	wallS := since(start).Seconds()

	// Correctness, outside the timed section.
	var (
		all      []float64
		byClass  [4][]float64
		recorded [2][]float64 // latencies of [0] unrecorded and [1] recorded blocks
		sheds    int
		streams  int
	)
	for _, s := range samples {
		p := plan[s.index]
		rc.attempt(1)
		sheds += s.sheds
		if s.err != nil {
			rc.fail("request %d: %v", s.index, s.err)
			continue
		}
		all = append(all, s.ms)
		byClass[s.class] = append(byClass[s.class], s.ms)
		recorded[(s.index/block)%2] = append(recorded[(s.index/block)%2], s.ms)
		switch {
		case p.class == classWarm:
			if !slices.Equal(s.tables, st.warm[p.warm]) {
				rc.fail("request %d: warm answer for %s differs from set-up's", s.index, warmExperiments[p.warm])
			}
		case p.verify:
			rc.check(fmt.Sprintf("request %d against a direct run", s.index), verifyDirect(p, s.tables))
		}
		if p.class == classStream {
			streams++
		}
	}
	rc.samples("requests", len(samples))
	rc.samples("never_seen", len(byClass[classCold])+len(byClass[classStream]))
	rc.samples("warm", len(byClass[classWarm]))
	rc.samples("profiled", len(byClass[classProfiled]))
	rc.samples("shed_retries", sheds)
	rc.samples("followup_404_retries", int(st.misrouted.Load()))
	if n := st.misrouted.Load(); n > 0 {
		rc.note("%d follow-up GETs by id were answered 404 and retried: with a replica active the router alternates owner and replica per request, and flights and profile documents live on one worker only", n)
	}
	rc.samples("engine_runs_at_fixed", int(counters["serve.engine_runs"]))

	if !rc.traced() {
		rc.set("ops_per_s", float64(len(all))/wallS)
		rc.setUnitTimes(all)
		return nil
	}

	mean := func(v []float64) float64 { return ratio(sum(v), float64(len(v))) }
	rc.set("harness.trace_overhead_pct", 100*ratio(mean(recorded[1])-mean(recorded[0]), mean(recorded[0])))
	neverSeen := append(append([]float64(nil), byClass[classCold]...), byClass[classStream]...)
	rc.set("client.cold_p50_ms", median(neverSeen))
	rc.set("client.cold_p95_ms", tail(neverSeen, 95))
	rc.set("client.warm_p50_ms", median(byClass[classWarm]))
	rc.set("client.warm_p95_ms", tail(byClass[classWarm], 95))
	rc.set("client.profiled_p50_ms", median(byClass[classProfiled]))
	for name, v := range st.routerCounters() {
		counters[name] = v
	}
	for _, name := range sortedKeys(counters) {
		rc.set(name, counters[name])
	}
	rc.set("serve.shed_429", float64(sheds))
	rc.set("cluster.followup_404s", float64(st.misrouted.Load()))
	rc.set("serve.streams_checked", float64(streams))
	puts, gets := 0.0, 0.0
	for _, ts := range st.stores {
		puts += float64(ts.puts.Load())
		gets += float64(ts.gets.Load())
	}
	rc.set("sweep.store_puts", puts)
	rc.set("sweep.store_gets", gets)

	spans := rc.tr.snapshot()
	setSpanMetrics(rc, spans)
	dur, self := byName(spans)
	rc.set("serve.handler_ms_p50", median(dur["serve.handler"]))
	rc.set("serve.self_ms_p50", median(self["serve.handler"]))
	// What a hop costs on top of the hop below it is its self time: the
	// client's minus the handler (or proxy) it caused, the proxy's minus
	// the handler it caused.
	if clustered {
		rc.set("cluster.proxy_ms_p50", median(dur["cluster.proxy"]))
		rc.set("cluster.router_self_ms_p50", median(self["client.request"]))
		rc.set("serve.http_ms_p50", median(self["cluster.proxy"]))
	} else {
		rc.set("serve.http_ms_p50", median(self["client.request"]))
	}
	isolatedServing(rc, plan)
	return nil
}

// verifyDirect runs the request's one job through the engine's own
// runner and compares the rendered table.
func verifyDirect(p planned, got []string) error {
	spec, err := sweep.SpecFor(p.experiment, []uint64{p.specSeed}, 1)
	if err != nil {
		return err
	}
	table, err := sweep.ExperimentRunner(sweep.Expand([]sweep.Spec{spec})[0].Spec)
	if err != nil {
		return err
	}
	if want := []string{table.Render("plain")}; !slices.Equal(got, want) {
		return fmt.Errorf("served tables differ from sweep.ExperimentRunner's for %s seed %d", p.experiment, p.specSeed)
	}
	return nil
}

// serverCounters reads the workers' counters, summed. Read after a fixed
// count of requests they depend on the plan alone, never on host speed.
func (st *stack) serverCounters() map[string]float64 {
	out := map[string]float64{}
	jobs, hits := 0.0, 0.0
	for _, srv := range st.servers {
		v := promValues(srv.Metrics().Render(0, 0))
		out["serve.engine_runs"] += v["mimdserved_engine_runs_total"]
		out["serve.coalesced"] += v["mimdserved_coalesced_total"]
		out["serve.store_served"] += v["mimdserved_store_served_total"]
		out["serve.profiles_built"] += v["mimdserved_profiles_built_total"]
		jobs += v["mimdserved_jobs_executed_total"] + v["mimdserved_job_cache_hits_total"]
		hits += v["mimdserved_job_cache_hits_total"]
	}
	out["serve.cache_hit_ratio"] = ratio(hits, jobs)
	return out
}

// routerCounters reads the router's counters. What the rebalancer did
// depends on the latencies it saw, so these are read when the run ends
// and reported as measured.
func (st *stack) routerCounters() map[string]float64 {
	out := map[string]float64{}
	if st.router == nil {
		return out
	}
	m := st.router.Metrics()
	v := promValues(m.Render(0, 0, 0))
	proxied, most := 0.0, 0.0
	for _, name := range sortedKeys(v) {
		if strings.HasPrefix(name, "mimdrouter_proxied_total{") {
			proxied += v[name]
			most = max(most, v[name])
		}
	}
	out["cluster.worker_share_max"] = ratio(most, proxied)
	out["cluster.failovers"] = float64(m.Failovers())
	out["cluster.replicas_added"] = float64(m.ReplicasAdded())
	out["cluster.replica_reads"] = float64(m.ReplicaReads())
	out["cluster.fill_objects"] = v["mimdrouter_fill_objects_total"]
	out["cluster.rebalance_polls"] = v["mimdrouter_rebalance_polls_total"]
	out["cluster.hedges_fired"] = float64(m.HedgesFired())
	out["cluster.breaker_opens"] = float64(m.BreakerOpens())
	out["cluster.truncated_streams"] = float64(m.TruncatedStreams())
	return out
}

// isolatedServing times the two pure functions on the request path.
func isolatedServing(rc *runCtx, plan []planned) {
	calls := rc.n(20_000, 200)
	rc.set("serve.request_id_us", perOp(calls, func(i int) {
		serve.ComputeRequestID([]byte(plan[i%len(plan)].body), serve.Options{})
	})/1000)
	workers := []string{"w1", "w2"}
	ids := make([]string, 256)
	for i := range ids {
		ids[i], _ = serve.ComputeRequestID([]byte(plan[i%len(plan)].body), serve.Options{})
	}
	rc.set("cluster.rank_ns", perOp(calls, func(i int) {
		cluster.Rank(workers, cluster.ShardOf(ids[i%len(ids)], cluster.DefaultNumShards))
	}))
}

// jobKeys returns the store keys a submission body expands to, plus the
// key of its profile document.
func jobKeys(body []byte) []string {
	var spec struct {
		Experiment string   `json:"experiment"`
		Seeds      []uint64 `json:"seeds"`
		Profile    bool     `json:"profile"`
	}
	if json.Unmarshal(body, &spec) != nil {
		return nil
	}
	sp, err := sweep.SpecFor(spec.Experiment, spec.Seeds, 1)
	if err != nil {
		return nil
	}
	var keys []string
	for _, j := range sweep.Expand([]sweep.Spec{sp}) {
		keys = append(keys, j.Key)
	}
	if spec.Profile {
		if id, err := serve.ComputeRequestID(body, serve.Options{}); err == nil {
			keys = append(keys, "profile-"+id)
		}
	}
	return keys
}

// requestKey is what correlates one request across hops that share no
// header: its body, or for a GET its path.
func requestKey(r *http.Request) (key string, body []byte) {
	if r.Method != http.MethodPost || r.Body == nil {
		return r.URL.Path, nil
	}
	body, _ = io.ReadAll(r.Body)
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(body))
	return string(body), body
}

// traceHandler records a span around the server's whole handler, caused
// by the proxy or client span open for the same request, and registers
// it as the cause of store and runner work on the request's job keys.
func traceHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		key, body := requestKey(r)
		parent := tr.parentOf("p:" + key)
		if parent == 0 {
			parent = tr.parentOf("c:" + key)
		}
		keys := append(jobKeys(body), anyKey)
		id := tr.begin("serve.handler", key, parent, keys...)
		next.ServeHTTP(w, r)
		tr.end(id, keys...)
	})
}

// tracedTransport is the router's outgoing client: a span per proxied
// request, open until the worker's headers arrive.
type tracedTransport struct {
	tr   *tracer
	next http.RoundTripper
}

func (t *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !strings.HasPrefix(r.URL.Path, "/v1/") || strings.HasPrefix(r.URL.Path, "/v1/replica/") {
		return t.next.RoundTrip(r)
	}
	key, _ := requestKey(r)
	id := t.tr.begin("cluster.proxy", key, t.tr.parentOf("c:"+key), "p:"+key)
	defer t.tr.end(id, "p:"+key)
	return t.next.RoundTrip(r)
}
