package cluster

import "repro/internal/metrics"

// Metrics is the router's /metrics: every series is declared once, in
// render order, in newMetrics.
type Metrics struct {
	reg               metrics.Registry
	requests, proxied *metrics.CounterVec

	failovers, noWorker, truncatedStreams, attemptTimeouts *metrics.Counter
}

func newMetrics() *Metrics {
	m := &Metrics{}
	r := &m.reg
	m.requests = r.CounterVec("mimdrouter_requests_total", "Router HTTP responses by status code.", "code")
	m.proxied = r.CounterVec("mimdrouter_proxied_total", "Submissions proxied, by worker.", "worker")
	m.failovers = r.Counter("mimdrouter_failovers_total", "Proxy attempts moved to the next rendezvous candidate.")
	m.noWorker = r.Counter("mimdrouter_no_worker_total", "Submissions shed because every candidate failed.")
	m.truncatedStreams = r.Counter("mimdrouter_truncated_streams_total", "Relayed streams that ended without a terminal frame.")
	m.attemptTimeouts = r.Counter("mimdrouter_attempt_timeouts_total", "Proxy attempts cancelled waiting for response headers.")
	return m
}

// In-process reads of counters /metrics renders, for tests, benchmark/
// and the chaos campaign.
func (m *Metrics) TruncatedStreams() int64 { return m.truncatedStreams.Value() }
func (m *Metrics) Failovers() int64        { return m.failovers.Value() }
func (m *Metrics) NoWorker() int64         { return m.noWorker.Value() }
func (m *Metrics) AttemptTimeouts() int64  { return m.attemptTimeouts.Value() }

// BreakerOpens returns 0: the router has no circuit breaker.
//
// Deprecated: the breaker is gone. The method stays only because the
// frozen benchmark/ module calls it; ROADMAP direction 1 deletes it.
func (m *Metrics) BreakerOpens() int64 { return 0 }

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

// Render writes the Prometheus text exposition. Its three arguments are
// ignored.
//
// Deprecated: the arguments fed the liveness gauges and the rebalancer,
// which are gone. They stay only because the frozen benchmark/ module
// passes them; ROADMAP direction 1 drops them.
func (m *Metrics) Render(int, uint64, int) string { return m.reg.Render(nil) }
