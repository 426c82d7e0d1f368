package main

import "slices"

// metricDef is one end-to-end metric: its unit, which direction is better,
// and the regression bound, a share of the baseline median. The metrics
// every workload reports are the ones BENCHMARK.json lists with these
// bounds, and the only ones -compare gates, with error_frac. The rest apply
// to the named workloads only; they are diagnostics, recorded and compared
// but never gated.
type metricDef struct {
	name, unit, better string
	bound              float64
	workloads          []string // nil: every workload
}

// endToEnd is the end-to-end metric table. Each gated bound is the
// smallest of 0.10, 0.15, 0.20 and 0.25 that is at least three times the
// largest interquartile spread over ten seeds that a set of runs with
// host-speed scaling showed on the workloads BENCHMARK.json lists, and at
// most 0.25, the largest bound it accepts (README.md lists every set). In
// a busy hour of the shared host that spread reached 0.089 for latency
// p50, 0.135 for the tail, 0.075 for throughput, 0.113 for CPU per request
// and 0.054 for peak RSS. setup_s takes the largest bound: explore and
// scaleup set up in 5–8 ms, and even a median of 25 set-ups spread by up
// to 0.37.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_tail_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "throughput_rps", unit: "req/s", better: "higher", bound: 0.25},
	{name: "cpu_ms_per_req", unit: "ms", better: "lower", bound: 0.25},
	{name: "rss_peak_mb", unit: "MB", better: "lower", bound: 0.20},
	// error_frac is 0 on a correct run, so any increase of its mean over the
	// runs is a regression.
	{name: "error_frac", unit: "fraction", better: "lower"},
	{name: "topk_exact_p50_ms", unit: "ms", better: "lower", workloads: []string{"explore"}},
	{name: "budget_latency_p50_ms", unit: "ms", better: "lower", workloads: []string{"interactive"}},
	{name: "budget_latency_tail_ms", unit: "ms", better: "lower", workloads: []string{"interactive"}},
	{name: "topk_recall", unit: "fraction", better: "higher", workloads: []string{"interactive"}},
	{name: "repeat_latency_tail_ms", unit: "ms", better: "lower", workloads: []string{"interactive"}},
	{name: "put_latency_p50_ms", unit: "ms", better: "lower", workloads: []string{"interactive"}},
}

// gated reports whether the metric is one BENCHMARK.json lists: reported on
// every workload and never zero. error_frac is zero on a correct run, so it
// reaches the result line as its failed/attempted counts instead.
func (m metricDef) gated() bool { return m.workloads == nil && m.name != "error_frac" }

// diagnostic reports whether the metric is recorded without a bound.
func (m metricDef) diagnostic() bool { return m.workloads != nil }

func (m metricDef) appliesTo(workload string) bool {
	return m.workloads == nil || slices.Contains(m.workloads, workload)
}

// perLayer lists the per-layer metrics a traced run reports for every
// workload (BENCHMARK.json's per_layer), with their units and the
// direction an optimisation should move them. The layer metrics that exist
// on some workloads only are in the trace summary.
var perLayer = []struct{ name, unit, better string }{
	{"serve.overhead_ms", "ms", "lower"},
	{"serve.records_per_req", "count", "lower"},
	{"serve.encode_us_per_record", "us", "lower"},
	{"serve.put_ms_p50", "ms", "lower"},
	{"dataset.parse_ms", "ms", "lower"},
	{"dataset.prepare_ms", "ms", "lower"},
	{"store.encode_ms", "ms", "lower"},
	{"store.decode_ms", "ms", "lower"},
	{"store.bytes", "bytes", "lower"},
	{"core.mine_ms_p50", "ms", "lower"},
	{"core.ns_per_node", "ns", "lower"},
	{"core.nodes_per_req", "count", "lower"},
	{"core.emitted_per_node", "ratio", "higher"},
	{"core.pruned_per_node", "ratio", "higher"},
	{"engine.setup_ms", "ms", "lower"},
	{"engine.search_ms", "ms", "lower"},
	{"engine.arena_bytes", "bytes", "lower"},
	{"bitset.and_ns_64", "ns", "lower"},
	{"bitset.and_ns_128", "ns", "lower"},
	{"bitset.and_ns_8192", "ns", "lower"},
	{"bitset.andcount_ns_64", "ns", "lower"},
	{"bitset.andcount_ns_128", "ns", "lower"},
	{"bitset.andcount_ns_8192", "ns", "lower"},
}
