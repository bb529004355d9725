package main

// A metricDef names one number the benchmark reports. BENCHMARK.json at
// the repository root lists the same names, units, directions and bounds;
// the smoke test holds the two against each other.
type metricDef struct {
	name, unit, better string
	// bound is how far the median may worsen, as a share of the parent's,
	// before a change counts as a regression. End-to-end metrics only.
	bound float64
}

// endToEnd is what a user of the system sees. Every workload reports all
// of them (with -trace 0). Every timing carries the contract's widest
// bound: on the shared two-core box this was sized on, ten runs of one
// binary spread 2–9 % (interquartile range over median) whatever the run
// length, because the machine itself drifts between two speeds a quarter
// apart. The counts repeat and are bounded tightly.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_reports_per_s", "reports/s", "higher", 0.25},
	{"ingest_ack_p50_us", "us", "lower", 0.25},
	{"finalize_p50_ms", "ms", "lower", 0.25},
	{"recover_s_per_gb", "s/GB", "lower", 0.25},
	{"wal_bytes_per_report", "bytes", "lower", 0.01},
	{"join_p50_us", "us", "lower", 0.25},
	{"freq_p50_us", "us", "lower", 0.25},
	{"chain_p50_us", "us", "lower", 0.25},
	{"plusjoin_p50_us", "us", "lower", 0.25},
	{"query_ops_per_s", "ops/s", "higher", 0.25},
	{"join_re_median", "ratio", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer is one layer's own number, measured by the harness around its
// calls into that layer's exported functions (with -trace 1). The prefix
// is the module under internal/.
var perLayer = []metricDef{
	{name: "protocol.decode_ns_per_report", unit: "ns", better: "lower"},
	{name: "protocol.decode_plus_ns_per_report", unit: "ns", better: "lower"},
	{name: "protocol.decode_matrix_ns_per_report", unit: "ns", better: "lower"},
	{name: "protocol.decode_allocs_per_batch", unit: "count", better: "lower"},
	{name: "protocol.wal_encode_ns_per_report", unit: "ns", better: "lower"},
	{name: "protocol.wal_decode_ns_per_report", unit: "ns", better: "lower"},
	{name: "protocol.snapshot_encode_us", unit: "us", better: "lower"},
	{name: "protocol.snapshot_decode_us", unit: "us", better: "lower"},

	{name: "store.append_us", unit: "us", better: "lower"},
	{name: "store.append_nosync_us", unit: "us", better: "lower"},
	{name: "store.fsync_share", unit: "ratio", better: "lower"},
	{name: "store.append_bulk_us", unit: "us", better: "lower"},
	{name: "store.appends", unit: "count", better: "lower"},
	{name: "store.wal_bytes", unit: "bytes", better: "lower"},
	{name: "store.background_checkpoints", unit: "count", better: "lower"},
	{name: "store.checkpoint_errors", unit: "count", better: "lower"},
	{name: "store.rotate_us", unit: "us", better: "lower"},
	{name: "store.save_checkpoint_ms", unit: "ms", better: "lower"},
	{name: "store.finalize_ms", unit: "ms", better: "lower"},
	{name: "store.open_ms", unit: "ms", better: "lower"},
	{name: "store.recover_self_s_per_gb", unit: "s/GB", better: "lower"},

	{name: "ingest.enqueue_ns_per_report", unit: "ns", better: "lower"},
	{name: "ingest.fold_ns_per_report", unit: "ns", better: "lower"},
	{name: "ingest.fold_plus_ns_per_report", unit: "ns", better: "lower"},
	{name: "ingest.fold_matrix_ns_per_report", unit: "ns", better: "lower"},
	{name: "ingest.queue_depth_max", unit: "count", better: "lower"},
	{name: "ingest.finalize_us", unit: "us", better: "lower"},
	{name: "ingest.state_us", unit: "us", better: "lower"},

	{name: "core.perturb_ns", unit: "ns", better: "lower"},
	{name: "core.fap_perturb_ns", unit: "ns", better: "lower"},
	{name: "core.frequent_items_ms", unit: "ms", better: "lower"},
	{name: "core.matrix_finalize_ms", unit: "ms", better: "lower"},
	{name: "core.add_ns_per_report", unit: "ns", better: "lower"},
	{name: "core.finalize_us", unit: "us", better: "lower"},
	{name: "core.joinsize_us", unit: "us", better: "lower"},
	{name: "core.frequency_median_ns", unit: "ns", better: "lower"},
	{name: "core.chain_estimate_ms", unit: "ms", better: "lower"},
	{name: "core.plusjoin_us", unit: "us", better: "lower"},
	{name: "core.freq_ae_median", unit: "reports", better: "lower"},
	{name: "core.chain_re_median", unit: "ratio", better: "lower"},
	{name: "core.plusjoin_re_median", unit: "ratio", better: "lower"},

	{name: "kernel.fwht_ns", unit: "ns", better: "lower"},
	{name: "kernel.fwht_scaled_ns", unit: "ns", better: "lower"},
	{name: "kernel.dot_ns", unit: "ns", better: "lower"},
	{name: "kernel.dot_shifted_ns", unit: "ns", better: "lower"},
	{name: "kernel.median_ns", unit: "ns", better: "lower"},
	{name: "kernel.join_flops", unit: "count", better: "lower"},

	{name: "hashing.bucket_sign_ns", unit: "ns", better: "lower"},

	{name: "service.floor_us", unit: "us", better: "lower"},
	{name: "service.status_us", unit: "us", better: "lower"},
	{name: "service.stats_us", unit: "us", better: "lower"},
	{name: "service.metrics_scrape_us", unit: "us", better: "lower"},
	{name: "service.join_self_us", unit: "us", better: "lower"},
	{name: "service.ingest_self_us", unit: "us", better: "lower"},
	{name: "service.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "service.cache_evictions", unit: "count", better: "lower"},
	{name: "service.ingest_ack_p99_us", unit: "us", better: "lower"},
	{name: "service.join_p99_us", unit: "us", better: "lower"},
	{name: "service.freq_p99_us", unit: "us", better: "lower"},
	{name: "service.chain_p99_us", unit: "us", better: "lower"},
	{name: "service.plusjoin_p99_us", unit: "us", better: "lower"},
	{name: "service.finalize_max_ms", unit: "ms", better: "lower"},
	{name: "service.shutdown_ms", unit: "ms", better: "lower"},
	{name: "service.reopen_ckpt_ms", unit: "ms", better: "lower"},

	{name: "harness.request_build_us", unit: "us", better: "lower"},
	{name: "harness.trace_overhead_share", unit: "ratio", better: "lower"},
	{name: "harness.failed_share", unit: "ratio", better: "lower"},
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
