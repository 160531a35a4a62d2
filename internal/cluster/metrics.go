package cluster

import "repro/internal/metrics"

// Metrics is the router's /metrics: every series is declared once, in
// render order, in newMetrics.
type Metrics struct {
	reg                            metrics.Registry
	requests, proxied              *metrics.CounterVec
	alive, version, activeReplicas *metrics.Gauge

	replicaReads, failovers, noWorker                           *metrics.Counter
	replicasAdded, replicasRetired, fillObjects, polls          *metrics.Counter
	truncatedStreams, hedgesFired                               *metrics.Counter
	breakerOpens, breakerSkips, attemptTimeouts, resumedFlights *metrics.Counter
}

func newMetrics() *Metrics {
	m := &Metrics{}
	r := &m.reg
	m.requests = r.CounterVec("mimdrouter_requests_total", "Router HTTP responses by status code.", "code")
	m.proxied = r.CounterVec("mimdrouter_proxied_total", "Submissions proxied, by worker.", "worker")
	m.alive = r.Gauge("mimdrouter_alive_workers", "Workers currently passing health checks.")
	m.version = r.Gauge("mimdrouter_membership_version", "Version of the membership table.")
	m.replicaReads = r.Counter("mimdrouter_replica_reads_total", "Submissions routed to a shard's replica.")
	m.failovers = r.Counter("mimdrouter_failovers_total", "Proxy attempts moved to the next rendezvous candidate.")
	m.noWorker = r.Counter("mimdrouter_no_worker_total", "Submissions shed because no candidate worker was alive.")
	m.activeReplicas = r.Gauge("mimdrouter_shard_replicas", "Shards currently serving through a replica.")
	m.replicasAdded = r.Counter("mimdrouter_replicas_added_total", "Replicas activated by the p99 rebalancer.")
	m.replicasRetired = r.Counter("mimdrouter_replicas_retired_total", "Replicas retired after sustained recovery.")
	m.fillObjects = r.Counter("mimdrouter_fill_objects_total", "Store objects copied by replica fills.")
	m.polls = r.Counter("mimdrouter_rebalance_polls_total", "Completed rebalancer polls over /shardstats.")
	m.truncatedStreams = r.Counter("mimdrouter_truncated_streams_total", "Relayed streams that ended without a terminal frame.")
	// Request hedging is gone; its two series stay declared (always 0) so
	// /metrics bytes and benchmark/'s cluster.hedges_fired reading hold
	// until the benchmark PR drops them (ROADMAP direction 1).
	m.hedgesFired = r.Counter("mimdrouter_hedges_fired_total", "Hedged secondary read attempts launched.")
	r.Counter("mimdrouter_hedges_won_total", "Hedged reads answered first by the secondary.")
	m.breakerOpens = r.Counter("mimdrouter_breaker_opens_total", "Worker circuit-breaker transitions into open.")
	m.breakerSkips = r.Counter("mimdrouter_breaker_skips_total", "Proxy candidates skipped on an open circuit.")
	m.attemptTimeouts = r.Counter("mimdrouter_attempt_timeouts_total", "Proxy attempts cancelled waiting for response headers.")
	m.resumedFlights = r.Counter("mimdrouter_resumed_flights_total", "Journaled flights resumed after a router restart.")
	return m
}

// In-process reads of counters /metrics renders, for tests, benchmark/
// and cmd/chaoscampaign.
func (m *Metrics) ReplicasAdded() int64    { return m.replicasAdded.Value() }
func (m *Metrics) ReplicasRetired() int64  { return m.replicasRetired.Value() }
func (m *Metrics) ReplicaReads() int64     { return m.replicaReads.Value() }
func (m *Metrics) TruncatedStreams() int64 { return m.truncatedStreams.Value() }
func (m *Metrics) HedgesFired() int64      { return m.hedgesFired.Value() }
func (m *Metrics) BreakerOpens() int64     { return m.breakerOpens.Value() }
func (m *Metrics) Failovers() int64        { return m.failovers.Value() }
func (m *Metrics) NoWorker() int64         { return m.noWorker.Value() }
func (m *Metrics) AttemptTimeouts() int64  { return m.attemptTimeouts.Value() }
func (m *Metrics) ResumedFlights() int64   { return m.resumedFlights.Value() }

// Render writes the Prometheus text exposition. aliveWorkers,
// membershipVersion and activeReplicas are live gauges sampled by the
// caller.
func (m *Metrics) Render(aliveWorkers int, membershipVersion uint64, activeReplicas int) string {
	return m.reg.Render(map[*metrics.Gauge]int64{
		m.alive: int64(aliveWorkers), m.version: int64(membershipVersion), m.activeReplicas: int64(activeReplicas),
	})
}
