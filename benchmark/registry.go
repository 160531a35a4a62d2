package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// runSeconds is how long one run measures when -seconds is not given; it
// is BENCHMARK.json's run_seconds.
const runSeconds = 15

// workloadDef is one named workload. run measures it into rc.
type workloadDef struct {
	Name string
	Why  string
	run  func(rc *runCtx) error
}

// workloads lists the seven workloads in the order -workload all runs
// them. The names are fixed: later issues cite them.
var workloads = []workloadDef{
	{"core-saturated", "one RB machine, 64 PEs on 1 bus, past the Section 7 knee (bus utilisation 1.00): host time is bus arbitration, snoop fan-out and the request-line scan", runCoreSaturated},
	{"core-private", "RWB(k=2), 2 PEs, below the knee (utilisation 0.37): every PE issues almost every cycle, so workload.Next, CPUPhase and the cache hit path dominate; the bus does little", runCorePrivate},
	{"core-sync", "RWB(k=2), 16 PEs all spinning TTS on one lock with 64-line caches: RMWs, write-broadcast snarfing and a line held by every cache (snoop fan-out 16)", runCoreSync},
	{"core-profiled", "core-private's machine with the mrc profiler attached: the difference to core-private is the profiler's cost, and its curve is checked against a cache-size sweep", runCoreProfiled},
	{"sweep-paper", "the batched sweep engine over every registered experiment x 4 seeds on a fresh DirStore, then warm passes: many short jobs, so construction, store puts and the journal matter", runSweepPaper},
	{"serve-mixed", "embedded serve.Server, 2 closed-loop clients, 25% never-seen specs (some streamed, some profiled) and 75% Zipf-repeated ones: the serving stack with the router bypassed", runServeMixed},
	{"cluster-skewed", "serve-mixed's plan through cluster.Router and 2 workers; every other block sends its cold specs to one shard (HotP99MS 30, MinSamples 8, PollInterval 500ms, hedging off)", runClusterSkewed},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef declares one metric. Layer is empty for an end-to-end
// metric. Exact marks a simulated quantity: it repeats bit for bit at a
// fixed seed and any change is a change in behaviour. Moves says which
// end-to-end metric the layer metric should move, on which workload.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Layer  string
	Exact  bool
	Moves  string
}

// endToEnd is measured with tracing off. The driver wants every
// end-to-end metric from every workload, so each is defined by role:
// ops_per_s counts the workload's own unit of work (simulated cycles,
// executed jobs, completed requests); p50_ms and p25_ms are the host
// time of one such unit (a fixed segment of cycles, one executed job, one
// request), the median and the first quartile. This sandbox slows a
// busy core in bursts of under a second, which moves the median of a run
// by 10-15% and the first quartile by far less; a tail percentile of a core
// workload's segments measures nothing but those bursts, so tails are
// per-layer metrics (client.*_p95_ms, experiments.run_ms_max). README.md
// maps the names to the per-workload ones.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p25_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
}

const (
	count = "count"
	share = "ratio"
)

func layerMetrics(layer, moves string, defs ...metricDef) []metricDef {
	for i := range defs {
		defs[i].Name = layer + "." + defs[i].Name
		defs[i].Layer = layer
		defs[i].Moves = moves
	}
	return defs
}

func hostTime(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func simCount(name string) metricDef {
	return metricDef{Name: name, Unit: count, Better: "lower", Exact: true}
}
func simValue(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Exact: true}
}
func measured(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// perLayer comes from the traced run. A metric a workload does not
// exercise reads 0 there.
var perLayer = concat(
	layerMetrics("workload", "ops_per_s on core-private; not core-saturated",
		hostTime("next_ns", "ns")),
	layerMetrics("processor", "ops_per_s on core-private",
		hostTime("cpuphase_ns", "ns"), simValue("retired", count, "higher"),
		simCount("stall_cycles"), simValue("stall_share", share, "lower")),
	layerMetrics("cache", "hit path: ops_per_s on core-private; snoop path: core-sync and core-saturated",
		hostTime("access_hit_ns", "ns"), hostTime("snoop_ns", "ns"),
		simValue("miss_ratio", share, "lower"), simValue("read_hits", count, "higher"),
		simValue("write_hits", count, "higher"), simCount("snarfs"), simCount("invalidated_by"),
		simCount("flush_supplied"), simCount("writebacks"), simCount("retries"), simCount("local_rmws")),
	layerMetrics("coherence", "ops_per_s on every core-* equally; a protocols-as-data refactor must hold it",
		hostTime("step_ns", "ns")),
	layerMetrics("bus", "ops_per_s on core-saturated and core-sync; at most a third of core-private",
		hostTime("tick_ns", "ns"), simCount("transactions"), simCount("reads"), simCount("writes"),
		simCount("invalidates"), simCount("rmws"), simValue("per_ref", share, "lower"),
		simValue("utilization", share, "lower"), simValue("wait_cycles_per_txn", "cycles", "lower"),
		simCount("killed_reads"), simCount("withdrawn"), simValue("rmw_failure_share", share, "lower")),
	layerMetrics("memory", "ops_per_s on core-saturated",
		hostTime("readwrite_ns", "ns"), simCount("reads"), simCount("writes")),
	layerMetrics("machine", "ns_per_* restate ops_per_s on core-*; new_ms/reset_ms move ops_per_s on sweep-paper and serve-mixed (never-seen requests), not core-*",
		hostTime("new_ms", "ms"), hostTime("reset_ms", "ms"), hostTime("metrics_us", "us"),
		hostTime("ns_per_cycle", "ns"), hostTime("ns_per_pe_cycle", "ns"), hostTime("ns_per_ref", "ns"),
		measured("allocs_per_cycle", "1/cycle", "lower"),
		simValue("miss_latency_p50_cycles", "cycles", "lower"), simValue("miss_latency_p99_cycles", "cycles", "lower"),
		measured("unattributed_share", share, "lower")),
	layerMetrics("bandwidth", "accuracy only: gap is near 0 below the knee (core-private) and the model pins at 1 on core-saturated",
		simValue("util_model", share, "lower"), simValue("util_gap", share, "lower")),
	layerMetrics("mrc", "ops_per_s on core-profiled only; client.profiled_p50_ms on serve-mixed",
		hostTime("touch_ns", "ns"), simValue("refs", count, "higher"), simCount("footprint"),
		measured("overhead_pct", "%", "lower"), simValue("residual", share, "lower")),
	layerMetrics("experiments", "ops_per_s on sweep-paper, and on serve-mixed and cluster-skewed through their never-seen requests",
		hostTime("run_ms_p50", "ms"), hostTime("run_ms_max", "ms"), measured("jobs", count, "higher"),
		simValue("paper_err_pp", "pp", "lower")),
	layerMetrics("batch", "ops_per_s on sweep-paper; predicted speed-up 1.0",
		measured("reuse_share", share, "higher"), measured("speedup", "x", "higher")),
	layerMetrics("sweep", "store and journal: p50_ms (warm requests) on serve-mixed, sweep.warm_jobs_per_s; engine: ops_per_s on sweep-paper",
		hostTime("engine_self_ms", "ms"), hostTime("store_put_us_p50", "us"), hostTime("store_get_us_p50", "us"),
		hostTime("journal_append_us_p50", "us"), hostTime("journal_keys_ms_p50", "ms"),
		measured("store_puts", count, "lower"), measured("store_gets", count, "lower"),
		measured("executed", count, "lower"), measured("cache_hits", count, "higher"),
		measured("parallel_speedup", "x", "higher"), hostTime("aggregate_us_p50", "us"),
		measured("warm_jobs_per_s", "1/s", "higher")),
	layerMetrics("report", "p50_ms (warm requests) on serve-mixed",
		hostTime("render_us_p50", "us")),
	layerMetrics("serve", "p50_ms and ops_per_s on serve-mixed",
		hostTime("handler_ms_p50", "ms"), hostTime("self_ms_p50", "ms"), hostTime("http_ms_p50", "ms"),
		hostTime("request_id_us", "us"), measured("engine_runs", count, "lower"),
		measured("coalesced", count, "higher"), measured("store_served", count, "higher"),
		measured("cache_hit_ratio", share, "higher"), measured("shed_429", count, "lower"),
		measured("streams_checked", count, "higher"), measured("profiles_built", count, "lower")),
	layerMetrics("cluster", "p50_ms and ops_per_s on cluster-skewed minus the same on serve-mixed",
		hostTime("proxy_ms_p50", "ms"), hostTime("router_self_ms_p50", "ms"), hostTime("rank_ns", "ns"),
		measured("worker_share_max", share, "lower"), measured("failovers", count, "lower"),
		measured("replicas_added", count, "higher"), measured("replica_reads", count, "higher"),
		measured("fill_objects", count, "higher"), measured("rebalance_polls", count, "higher"),
		measured("hedges_fired", count, "lower"), measured("breaker_opens", count, "lower"),
		measured("truncated_streams", count, "lower"), measured("followup_404s", count, "lower")),
	layerMetrics("client", "the request classes behind p50_ms (warm) and ops_per_s (never-seen requests take most of the time) on serve-mixed and cluster-skewed",
		hostTime("cold_p50_ms", "ms"), hostTime("cold_p95_ms", "ms"), hostTime("warm_p50_ms", "ms"),
		hostTime("warm_p95_ms", "ms"), hostTime("profiled_p50_ms", "ms")),
	layerMetrics("harness", "none: the cost of measuring",
		measured("trace_overhead_pct", "%", "lower"), measured("spans", count, "lower"),
		measured("failed_share", share, "lower")),
)

func concat(groups ...[]metricDef) []metricDef {
	var out []metricDef
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

func allMetrics() []metricDef { return concat(endToEnd, perLayer) }

func metricByName(name string) (metricDef, bool) {
	for _, m := range allMetrics() {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// manifest renders BENCHMARK.json from the registry, so the two cannot
// drift apart (a test compares them).
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "benchmark", "repro/benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("manifest: %v", err))
	}
	return append(data, '\n')
}

// predictionTable renders the layer → end-to-end predictions for the
// README and for -list.
func predictionTable() string {
	var b strings.Builder
	last := ""
	for _, m := range perLayer {
		if m.Layer != last {
			fmt.Fprintf(&b, "%-12s %s\n", m.Layer, m.Moves)
			last = m.Layer
		}
	}
	return b.String()
}
