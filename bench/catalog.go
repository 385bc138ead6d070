package main

// metricDef names one reported number. Every name here is printed exactly
// once per run of a workload; BENCHMARK.json lists the same names (the
// smoke test holds the two together).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the reference median by which an end-to-end
	// metric may worsen before -compare calls it regressed. Per-layer
	// metrics carry no bound.
	Bound float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics every workload reports: what an operator
// placing NFs by Yala's answers sees. The bounds are what a shared
// two-core box holds between runs of one commit (README, "Steadiness").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_tail_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
}

// exactMetrics are the deterministic end-to-end outcomes: functions of
// (seed, models) only, so two runs of one commit must repeat them
// exactly. They are reported on the workload that defines them and
// recorded in result.json; the driver sees them as per-layer rows and
// through the run's correct/failed fields.
var exactMetrics = map[string]bool{
	"loadgen.fail_ratio":          true,
	"serve.mape_pct":              true,
	"cluster.admit_ratio":         true,
	"cluster.sla_violation_ratio": true,
}

// mapeSlackPoints is how far serve.mape_pct may rise between two
// records before -compare calls it regressed.
const mapeSlackPoints = 1.0

// perLayer lists the per-layer rows, layer = package name. A row a
// workload does not drive reads 0 there: counters because the layer saw
// no traffic, ladder rungs because only the workload that owns a rung
// times it (see README, "Per-layer rows").
var perLayer = []metricDef{
	// serve-hot ladder and counters.
	{"serve.cache_get_ns", "ns", "lower", 0},
	{"serve.predict_hit_ns", "ns", "lower", 0},
	{"serve.predict_hit_allocs", "allocs/op", "lower", 0},
	{"obs.span_ns", "ns", "lower", 0},
	{"obs.hist_observe_ns", "ns", "lower", 0},
	{"tenant.gate_admit_ns", "ns", "lower", 0},
	{"wire.codec_predict_ns", "ns", "lower", 0},
	{"wire.codec_predict_allocs", "allocs/op", "lower", 0},
	{"wire.echo_rtt_us", "us", "lower", 0},
	{"wire.predict_rtt_us", "us", "lower", 0},
	{"yalaclient.wire_predict_rtt_us", "us", "lower", 0},
	{"yalaclient.wire_predict_allocs", "allocs/op", "lower", 0},
	{"yalaclient.self_us", "us", "lower", 0},
	{"serve.frontdoor_self_us", "us", "lower", 0},
	{"wire.achieved_over_floor", "ratio", "lower", 0},
	{"serve.stage_cache_us", "us", "lower", 0},
	{"serve.requests_wire", "count", "higher", 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"proc.allocs_per_op", "allocs/op", "lower", 0},
	{"proc.alloc_kb_per_op", "KB/op", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.heap_peak_mb", "MB", "lower", 0},
	// serve-novel ladder and counters.
	{"testbed.solo_novel_ms", "ms", "lower", 0},
	{"testbed.solo_novel_allocs", "allocs/op", "lower", 0},
	{"testbed.solo_novel_mb", "MB", "lower", 0},
	{"testbed.workload_build_ms", "ms", "lower", 0},
	{"nicsim.run_solo_ms", "ms", "lower", 0},
	{"nicsim.run_corun3_ms", "ms", "lower", 0},
	{"serve.predict_miss_us", "us", "lower", 0},
	{"serve.predict_miss_allocs", "allocs/op", "lower", 0},
	{"serve.predict_novel_ms", "ms", "lower", 0},
	{"backend.predict_ns", "ns", "lower", 0},
	{"backend.predict_allocs", "allocs/op", "lower", 0},
	{"ml.gbr_predict_ns", "ns", "lower", 0},
	{"serve.stage_predict_us", "us", "lower", 0},
	{"serve.cache_evictions", "count", "lower", 0},
	{"serve.cache_put_evict_ns", "ns", "lower", 0},
	{"serve.mape_pct", "%", "lower", 0},
	// gateway-mix ladder and counters.
	{"gateway.edge_hit_ratio", "ratio", "higher", 0},
	{"gateway.coalesced", "count", "higher", 0},
	{"gateway.retries", "count", "lower", 0},
	{"gateway.upstream_us", "us", "lower", 0},
	{"gateway.edge_hit_us", "us", "lower", 0},
	{"gateway.routed_us", "us", "lower", 0},
	{"gateway.batch8_scatter_us", "us", "lower", 0},
	{"gateway.reload_fanout_ms", "ms", "lower", 0},
	{"gateway.replica_share_max", "ratio", "lower", 0},
	{"gateway.wire_upstreams", "count", "higher", 0},
	{"floor.http_rtt_us", "us", "lower", 0},
	{"yalaclient.http_predict_rtt_us", "us", "lower", 0},
	{"yalaclient.http_predict_allocs", "allocs/op", "lower", 0},
	{"serve.stage_decode_us", "us", "lower", 0},
	{"serve.stage_encode_us", "us", "lower", 0},
	{"serve.requests_http", "count", "higher", 0},
	{"serve.admit_miss_us", "us", "lower", 0},
	{"serve.ingest_us", "us", "lower", 0},
	{"feedback.observe_ns", "ns", "lower", 0},
	{"feedback.trips", "count", "lower", 0},
	{"loadgen.late_p99_us", "us", "lower", 0},
	// fleet-sched ladder and counters.
	{"cluster.decision_us_avg", "us", "lower", 0},
	{"cluster.slots_scanned_per_decision", "count", "lower", 0},
	{"cluster.slots_scored_per_decision", "count", "lower", 0},
	{"cluster.us_per_scored_slot", "us", "lower", 0},
	{"cluster.decision_share", "ratio", "lower", 0},
	{"cluster.choose_us_16", "us", "lower", 0},
	{"cluster.choose_us_256", "us", "lower", 0},
	{"cluster.choose_us_1024", "us", "lower", 0},
	{"cluster.choose_us_4096", "us", "lower", 0},
	{"placement.feasible_us", "us", "lower", 0},
	{"placement.feasible_batch_us_per_set", "us", "lower", 0},
	{"backend.batch_predict_ns_per_set", "ns", "lower", 0},
	{"cluster.prewarm_s", "s", "lower", 0},
	{"cluster.rejected", "count", "lower", 0},
	{"cluster.rollbacks", "count", "lower", 0},
	{"cluster.migrations", "count", "lower", 0},
	{"cluster.peak_tenants", "count", "higher", 0},
	{"cluster.admit_ratio", "ratio", "higher", 0},
	{"cluster.sla_violation_ratio", "ratio", "lower", 0},
	// What setup_s is made of, on every workload.
	{"core.train_s_per_model", "s", "lower", 0},
	{"profiling.samples_per_model", "count", "lower", 0},
	{"ml.gbr_fit_ms", "ms", "lower", 0},
	{"backend.load_ms", "ms", "lower", 0},
	{"testbed.solo_warm_s", "s", "lower", 0},
	// Harness health, on every workload.
	{"loadgen.ops_attempted", "count", "higher", 0},
	{"loadgen.ops_failed", "count", "lower", 0},
	{"loadgen.fail_ratio", "ratio", "lower", 0},
	{"loadgen.slice_spread_pct", "%", "lower", 0},
	{"loadgen.tail_samples", "count", "higher", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
}
