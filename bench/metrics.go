package main

// metricDef is one row of the benchmark's metric tables. BENCHMARK.json
// carries the same rows (name, unit, better, and for end-to-end
// metrics the regression bound); bench_test.go keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees, measured on untraced
// repetitions only. Every workload reports every row. The time bounds
// are the widest the benchmark contract allows: on the 2-core shared
// host the baseline was recorded on, the machine itself switches
// between a fast and a ~30 % slower mode every few seconds, and medians
// of 15 s runs still spread by 5-9 % (README.md has the measurements).
//
// Events per second is deliberately not here: a change that delivers
// the same packets with fewer scheduler events, or answers lookups
// without crossing the simulator, would read as a regression. It is a
// per-layer metric (simnet.events_per_s beside simnet.events_per_op).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "allocs/op", "lower", 0.02},
	{"alloc_bytes_per_op", "B/op", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// reportsMin names the end-to-end metrics a run reports as the minimum
// over its repetitions where the others report the median. Allocation
// noise is one-sided and bimodal — the same repetition allocates either
// n or n+215 times depending on the process's map hash seeds — and the
// minimum is what repeats.
var reportsMin = map[string]bool{"allocs_per_op": true, "alloc_bytes_per_op": true}

// busyLayers are the internal/ packages whose CPU share the traced run
// reports; a profile sample is charged to the innermost frame that
// belongs to one of them. Samples whose innermost repo frame is in
// another internal/ package or in the harness go to "other", samples
// with no repo frame at all (background GC) to "runtime_bg".
var busyLayers = []string{
	"simnet", "slayers", "spath", "scrypto", "router", "dispatcher",
	"scmp", "multiping", "pan", "topology", "scenario", "combinator",
	"pathdb", "beacon", "segment", "control", "daemon", "core",
	"traffic", "telemetry", "experiments", "stats",
}

// perLayer is assembled once: busy time per layer, then the exact
// counts, then the harness spans.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range append(append([]string{}, busyLayers...), "other", "runtime_bg") {
		defs = append(defs, metricDef{Name: l + ".busy_ns_per_op", Unit: "ns/op", Better: "lower"})
	}
	return append(defs, []metricDef{
		{Name: "bench.attributed_share", Unit: "ratio", Better: "higher"},
		{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower"},

		// Counts harvested from counters the packages already export.
		// All but the runtime.* rows repeat bit for bit.
		{Name: "simnet.events_per_op", Unit: "count/op", Better: "lower"},
		{Name: "simnet.events_per_s", Unit: "1/s", Better: "higher"},
		{Name: "simnet.peak_pending", Unit: "count", Better: "lower"},
		{Name: "simnet.dropped", Unit: "count", Better: "lower"},
		{Name: "router.received_per_op", Unit: "count/op", Better: "lower"},
		{Name: "router.forwarded_per_op", Unit: "count/op", Better: "lower"},
		{Name: "router.delivered_per_op", Unit: "count/op", Better: "lower"},
		{Name: "router.drops", Unit: "count", Better: "lower"},
		{Name: "router.scmp_sent", Unit: "count", Better: "lower"},
		{Name: "dispatcher.demux_miss_share", Unit: "ratio", Better: "lower"},
		{Name: "multiping.probes", Unit: "count", Better: "higher"},
		{Name: "multiping.lost_share", Unit: "ratio", Better: "lower"},
		{Name: "multiping.records", Unit: "count", Better: "higher"},
		{Name: "multiping.full_probes", Unit: "count", Better: "lower"},
		{Name: "beacon.propagated_per_refresh", Unit: "count", Better: "lower"},
		{Name: "beacon.registered_per_refresh", Unit: "count", Better: "higher"},
		{Name: "beacon.pruned", Unit: "count", Better: "higher"},
		{Name: "pathdb.core_segments", Unit: "count", Better: "higher"},
		{Name: "pathdb.down_segments", Unit: "count", Better: "higher"},
		{Name: "combinator.paths_per_lookup", Unit: "count", Better: "higher"},
		{Name: "daemon.cache_hit_share", Unit: "ratio", Better: "higher"},
		{Name: "daemon.combine_hit_share", Unit: "ratio", Better: "higher"},
		{Name: "traffic.flows_completed", Unit: "count", Better: "higher"},
		{Name: "traffic.peak_active_flows", Unit: "count", Better: "higher"},
		{Name: "traffic.backpressure", Unit: "count", Better: "lower"},
		{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},

		// Harness spans. Each is measured on one workload and reads 0
		// on the others.
		{Name: "experiments.campaign_s", Unit: "s", Better: "lower"},
		{Name: "experiments.figures_s", Unit: "s", Better: "lower"},
		{Name: "core.build_s", Unit: "s", Better: "lower"},
		{Name: "traffic.new_s", Unit: "s", Better: "lower"},
		{Name: "simnet.run_s", Unit: "s", Better: "lower"},
		{Name: "slayers.serialize_ns", Unit: "ns", Better: "lower"},
		{Name: "slayers.decode_ns", Unit: "ns", Better: "lower"},
		{Name: "router.hop_ns_min_b1", Unit: "ns", Better: "lower"},
		{Name: "router.hop_ns_min_b32", Unit: "ns", Better: "lower"},
		{Name: "router.hop_ns_mtu_b32", Unit: "ns", Better: "lower"},
		{Name: "core.converge_s", Unit: "s", Better: "lower"},
		{Name: "core.snapshot_write_ms", Unit: "ms", Better: "lower"},
		{Name: "core.snapshot_load_ms", Unit: "ms", Better: "lower"},
		{Name: "core.clone_ms", Unit: "ms", Better: "lower"},
		{Name: "core.refresh_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "core.refresh_ms_p75", Unit: "ms", Better: "lower"},
		{Name: "core.lookup_cold_us_p50", Unit: "us", Better: "lower"},
		{Name: "core.lookup_cold_us_p99", Unit: "us", Better: "lower"},
		{Name: "core.lookup_warm_ns", Unit: "ns", Better: "lower"},
		{Name: "daemon.lookup_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "daemon.lookup_ms_p75", Unit: "ms", Better: "lower"},
	}...)
}()
