package serve

import (
	"time"

	"repro/internal/metrics"
)

// Metrics is the daemon's /metrics: every series is declared once, in
// render order, in newMetrics.
type Metrics struct {
	reg              metrics.Registry
	requests         *metrics.CounterVec
	inFlight, queued *metrics.Gauge

	coalesced, engineRuns, storeServed                     *metrics.Counter
	jobsExecuted, jobCacheHits, jobsFailed, silentFailures *metrics.Counter
	profilesBuilt, profilesServed                          *metrics.Counter
	jobLatency                                             *metrics.Histogram
}

func newMetrics() *Metrics {
	m := &Metrics{}
	r := &m.reg
	m.requests = r.CounterVec("mimdserved_requests_total", "HTTP responses by status code.", "code")
	m.inFlight = r.Gauge("mimdserved_inflight_runs", "Engine runs executing now.")
	m.queued = r.Gauge("mimdserved_queue_depth", "Admitted submissions waiting for an execution slot.")
	m.coalesced = r.Counter("mimdserved_coalesced_total", "Submissions coalesced onto an identical in-flight run.")
	m.engineRuns = r.Counter("mimdserved_engine_runs_total", "Engine executions admitted (excludes the store fast path).")
	m.storeServed = r.Counter("mimdserved_store_served_total", "Requests answered entirely from the result store.")
	m.jobsExecuted = r.Counter("mimdserved_jobs_executed_total", "Simulation jobs executed.")
	m.jobCacheHits = r.Counter("mimdserved_job_cache_hits_total", "Jobs served from the result store.")
	m.jobsFailed = r.Counter("mimdserved_jobs_failed_total", "Jobs that panicked or timed out.")
	m.silentFailures = r.Counter("mimdserved_silent_failures_total", "Silent divergences reported by fault campaigns.")
	m.profilesBuilt = r.Counter("mimdserved_profiles_built_total", "Miss-ratio-curve documents built and memoized.")
	m.profilesServed = r.Counter("mimdserved_profiles_served_total", "/v1/profile answers served from the store.")
	r.Ratio("mimdserved_cache_hit_ratio", "Jobs served from the store over all finished jobs.", m.jobCacheHits, m.jobsExecuted)
	m.jobLatency = r.Histogram("mimdserved_job_latency_ms", "Per-job wall time in milliseconds.",
		[]float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000})
	return m
}

// observeOutcome folds one completed engine run into the job counters
// and the latency histogram.
func (m *Metrics) observeOutcome(executed, cacheHits, failed int, jobWalls []time.Duration, silent int) {
	m.jobsExecuted.Add(int64(executed))
	m.jobCacheHits.Add(int64(cacheHits))
	m.jobsFailed.Add(int64(failed))
	m.silentFailures.Add(int64(silent))
	for _, w := range jobWalls {
		m.jobLatency.Observe(float64(w) / float64(time.Millisecond))
	}
}

// ProfilesBuilt returns how many curve docs this server has built.
func (m *Metrics) ProfilesBuilt() int64 { return m.profilesBuilt.Value() }

// ProfilesServed returns how many /v1/profile requests this server has
// answered 200 from the store.
func (m *Metrics) ProfilesServed() int64 { return m.profilesServed.Value() }

// EngineRuns returns the number of admitted engine executions.
func (m *Metrics) EngineRuns() int64 { return m.engineRuns.Value() }

// Render writes the Prometheus text exposition. inFlight/queued are the
// admission controller's live gauges, sampled by the caller.
func (m *Metrics) Render(inFlight, queued int) string {
	return m.reg.Render(map[*metrics.Gauge]int64{m.inFlight: int64(inFlight), m.queued: int64(queued)})
}
