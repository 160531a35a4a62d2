package cluster

import "repro/internal/metrics"

// Metrics is the router's /metrics: every series is declared once, in
// render order, in newMetrics.
type Metrics struct {
	reg               metrics.Registry
	requests, proxied *metrics.CounterVec
	alive, version    *metrics.Gauge

	failovers, noWorker, truncatedStreams                       *metrics.Counter
	breakerOpens, breakerSkips, attemptTimeouts, resumedFlights *metrics.Counter
}

func newMetrics() *Metrics {
	m := &Metrics{}
	r := &m.reg
	m.requests = r.CounterVec("mimdrouter_requests_total", "Router HTTP responses by status code.", "code")
	m.proxied = r.CounterVec("mimdrouter_proxied_total", "Submissions proxied, by worker.", "worker")
	m.alive = r.Gauge("mimdrouter_alive_workers", "Workers currently passing health checks.")
	m.version = r.Gauge("mimdrouter_membership_version", "Version of the membership table.")
	m.failovers = r.Counter("mimdrouter_failovers_total", "Proxy attempts moved to the next rendezvous candidate.")
	m.noWorker = r.Counter("mimdrouter_no_worker_total", "Submissions shed because no candidate worker was alive.")
	m.truncatedStreams = r.Counter("mimdrouter_truncated_streams_total", "Relayed streams that ended without a terminal frame.")
	m.breakerOpens = r.Counter("mimdrouter_breaker_opens_total", "Worker circuit-breaker transitions into open.")
	m.breakerSkips = r.Counter("mimdrouter_breaker_skips_total", "Proxy candidates skipped on an open circuit.")
	m.attemptTimeouts = r.Counter("mimdrouter_attempt_timeouts_total", "Proxy attempts cancelled waiting for response headers.")
	m.resumedFlights = r.Counter("mimdrouter_resumed_flights_total", "Journaled flights resumed after a router restart.")
	return m
}

// In-process reads of counters /metrics renders, for tests, benchmark/
// and cmd/chaoscampaign.
func (m *Metrics) TruncatedStreams() int64 { return m.truncatedStreams.Value() }
func (m *Metrics) BreakerOpens() int64     { return m.breakerOpens.Value() }
func (m *Metrics) Failovers() int64        { return m.failovers.Value() }
func (m *Metrics) NoWorker() int64         { return m.noWorker.Value() }
func (m *Metrics) AttemptTimeouts() int64  { return m.attemptTimeouts.Value() }
func (m *Metrics) ResumedFlights() int64   { return m.resumedFlights.Value() }

// ReplicasAdded returns 0: the router keeps no replicas.
//
// Deprecated: the p99 rebalancer is gone. The method stays only because
// the frozen benchmark/ module calls it; ROADMAP direction 1 deletes it.
func (m *Metrics) ReplicasAdded() int64 { return 0 }

// ReplicaReads returns 0: the router keeps no replicas.
//
// Deprecated: see ReplicasAdded.
func (m *Metrics) ReplicaReads() int64 { return 0 }

// HedgesFired returns 0: the router never hedges.
//
// Deprecated: request hedging is gone. The method stays only because the
// frozen benchmark/ module calls it; ROADMAP direction 1 deletes it.
func (m *Metrics) HedgesFired() int64 { return 0 }

// Render writes the Prometheus text exposition. aliveWorkers and
// membershipVersion are live gauges sampled by the caller. The third
// argument is ignored: it stays only because the frozen benchmark/
// module passes it, and ROADMAP direction 1 drops it.
func (m *Metrics) Render(aliveWorkers int, membershipVersion uint64, _ int) string {
	return m.reg.Render(map[*metrics.Gauge]int64{
		m.alive: int64(aliveWorkers), m.version: int64(membershipVersion),
	})
}
