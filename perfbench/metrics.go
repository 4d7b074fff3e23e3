package main

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
}

// endToEnd are printed by every untraced run.  What each measures:
//
//	latency_p50_ms   model-*: median core.Run call over the fastest tenth
//	                 of the run's 10-call blocks (see blockCalls);
//	                 serve-cluster: median open-loop request, timed from when due
//	latency_tail_ms  model-*: p90 core.Run call over the same blocks;
//	                 serve-cluster: p99 open-loop request
//	setup_s          model-*: median cold process making one core.Run call;
//	                 serve-cluster: median build of gateway and backends until
//	                 ready and one request answered
//	max_rss_mb       peak resident set of the benchmark process
//
// Throughput (model steps per second, closed-loop responses per second) is
// printed with the notes but not gated: a CPU-saturated loop follows the
// host's speed regimes, and over ten seeds the closed loop's spread reached
// 24% of its median, too close to the largest bound allowed.  On the model
// workloads calls run back to back, so latency_p50_ms carries the same
// signal.  The error rate is failed/attempted in the result line.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"max_rss_mb", "MiB", "lower"},
}

// perLayer are printed by every traced run.  An op is one core.Run call on
// the model workloads and one request on serve-cluster.  Span times on the
// model layers are per-rank wall times, which include waiting for other
// ranks and for a CPU.  Layers a workload never enters read 0.
var perLayer = []metricDef{
	{"core.setup_ms", "ms", "lower"},
	{"core.run_p50_ms", "ms", "lower"},
	{"core.run_p99_ms", "ms", "lower"},
	{"dynamics.self_ms_per_step", "ms", "lower"},
	{"filter.ms_per_step", "ms", "lower"},
	{"filter.share", "ratio", "lower"},
	{"physics.ms_per_step", "ms", "lower"},
	{"comm.messages_per_step", "count", "lower"},
	{"comm.bytes_per_step", "B", "lower"},
	{"sim.max_wait_share", "ratio", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.alloc_bytes_per_op", "B", "lower"},
	{"runtime.gc_per_op", "count", "lower"},
	{"runtime.cpu_util", "ratio", "higher"},
	{"gateway.hop_p50_ms", "ms", "lower"},
	{"gateway.hop_p99_ms", "ms", "lower"},
	{"gateway.attempts_per_request", "count", "lower"},
	{"server.hit_p50_ms", "ms", "lower"},
	{"server.admit_p99_ms", "ms", "lower"},
	{"server.post_run_p50_ms", "ms", "lower"},
	{"server.hit_ratio", "ratio", "higher"},
	{"server.coalesced", "count", "higher"},
	{"server.disk_hits", "count", "higher"},
	{"server.shed", "count", "lower"},
	{"class.interactive.latency_p99_ms", "ms", "lower"},
	{"class.batch.latency_p99_ms", "ms", "lower"},
	{"loadgen.lag_p99_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}
