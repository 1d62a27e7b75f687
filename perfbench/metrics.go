package main

// The metric catalogue. BENCHMARK.json at the repository root lists the
// same names, units and bounds; the self-test keeps the two in step.

// e2eMetric is an end-to-end metric: what a user of the server or of a
// bulk job sees. Every workload reports every one of them (--trace 0).
type e2eMetric struct {
	name, unit, better string
	bound              float64 // allowed worsening, as a share of the parent's median
}

// endToEnd is reported by every workload. The latency and throughput
// metrics name the workload's own unit of work:
//
//	             p50_ms                               ops_per_cpu_s
//	serve-topk   /v1/topk, open loop, from due time   /v1/topk requests, closed loop
//	serve-mixed  /v1/topk, open loop, from due time   mixed requests, closed loop
//	bulk-topk    one whole BulkTopK job               query rows of the jobs
//
// Throughput is per CPU-second of the benchmark process, which a shared
// host's stolen CPU time does not move. The report lines above the result
// also print the per-kind names (topk_p99_ms, above_p50_ms,
// update_p99_ms, saturated_qps, rows_per_s, fail_ratio, ...) with their
// sample counts.
var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.1},
	{"p50_ms", "ms", "lower", 0.25},
	{"ops_per_cpu_s", "1/s", "higher", 0.25},
}

// layerMetric is a per-layer metric of the traced run (--trace 1), with
// the end-to-end metric and workload it is expected to move. A workload
// that never enters a layer reports 0 for it.
type layerMetric struct {
	name, unit, better, moves string
}

var perLayer = []layerMetric{
	{"server.http.self_us", "us", "lower", "p50_ms, ops_per_cpu_s · serve-topk"},
	{"server.http.wire_us", "us", "lower", "p50_ms · serve-topk"},
	{"server.batcher.wait_us", "us", "lower", "topk_p99_ms · serve-topk"},
	{"server.batcher.rows_per_batch", "rows", "higher", "ops_per_cpu_s · serve-topk"},
	{"server.admission.shed_ratio", "ratio", "lower", "fail_ratio · serve-topk, serve-mixed"},
	{"server.cache.hit_ratio", "ratio", "higher", "p50_ms · serve-mixed (0 on serve-topk by construction)"},
	{"server.sharded.shard_us", "us", "lower", "topk_p99_ms · serve-topk"},
	{"server.sharded.shard_skew", "ratio", "lower", "topk_p99_ms · serve-topk"},
	{"server.sharded.merge_us", "us", "lower", "p50_ms · serve-topk"},
	{"server.sharded.pruned_ratio", "ratio", "higher", "above_p50_ms · serve-mixed"},
	{"server.update.self_us", "us", "lower", "update_p50_ms, update_p99_ms · serve-mixed"},
	{"server.update.compactions", "count", "lower", "update_p50_ms, update_p99_ms · serve-mixed"},
	{"core.tune.busy_ms", "ms/s", "lower", "topk_p99_ms · serve-mixed; ops_per_cpu_s · bulk-topk"},
	{"core.tune.runs", "count", "lower", "topk_p99_ms · serve-mixed; ops_per_cpu_s · bulk-topk"},
	{"core.tune.cache_hit_ratio", "ratio", "higher", "topk_p99_ms · serve-mixed; ops_per_cpu_s · bulk-topk"},
	{"core.scan.busy_ms", "ms/s", "lower", "ops_per_cpu_s · bulk-topk; p50_ms · serve-topk"},
	{"core.scan.candidates_per_query", "count", "lower", "ops_per_cpu_s · bulk-topk"},
	{"core.scan.pair_prune_ratio", "ratio", "higher", "ops_per_cpu_s · bulk-topk"},
	{"core.verify.results_per_candidate", "ratio", "higher", "ops_per_cpu_s · bulk-topk"},
	{"core.verify.block_ratio", "ratio", "higher", "ops_per_cpu_s · bulk-topk"},
	{"core.delta.mass", "ratio", "lower", "topk_p99_ms · serve-mixed"},
	{"core.buckets", "count", "lower", "topk_p99_ms · serve-mixed"},
	{"core.build_ms", "ms", "lower", "setup_s · serve-topk, bulk-topk"},
	{"quant.screen_ratio", "ratio", "higher", "ops_per_cpu_s · bulk-topk; above_p50_ms · serve-mixed"},
	{"quant.sidecar_mb", "MB", "lower", "heap_mb · bulk-topk, serve-mixed"},
	{"bulk.worker_busy_ratio", "ratio", "higher", "ops_per_cpu_s · bulk-topk"},
	{"bulk.checkpoints", "count", "lower", "ops_per_cpu_s · bulk-topk"},
	{"bulk.out_mb", "MB", "lower", "ops_per_cpu_s · bulk-topk"},
	{"matrix.panel_read_ms", "ms", "lower", "ops_per_cpu_s · bulk-topk"},
	{"snapshot.restore_ms", "ms", "lower", "setup_s · serve-mixed"},
	{"snapshot.mb", "MB", "lower", "setup_s · serve-mixed"},
	{"loadgen.late_p99_ms", "ms", "lower", "none: a validity check, it must stay small"},
	{"trace.overhead_ratio", "ratio", "lower", "none: traced over untraced p50_ms, reported"},
}

// unitOf returns the unit of a catalogued metric.
func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: metric " + name + " is not catalogued")
}
