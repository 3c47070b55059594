package main

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions (a test keeps the two equal); bound is set for end-to-end
// metrics only.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the engine or server sees, measured
// with tracing off. The three timing metrics are host-normalized (see
// reference.go): times as they would read on this host when its neighbours
// are quiet. The bound is the share of the parent's median by which the
// metric may get worse before a change counts as a regression; README.md,
// "How steady it is", has the spreads they were chosen from.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"throughput_qps", "op/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"resident_mib", "MiB", "lower", 0.02},
}

// perLayer are the single-layer metrics of the traced pass. A metric that
// does not apply to a workload (serve.* on an engine workload, quant.* on
// an fp32 one) reads 0 there.
var perLayer = []metricDef{
	{name: "host.flops_probe_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "host.copy_gbps", unit: "GB/s", better: "higher"},

	{name: "mnn.infer_into_p50_ms", unit: "ms", better: "lower"},
	{name: "mnn.residual_frac", unit: "frac", better: "lower"},
	{name: "mnn.trace_overhead_frac", unit: "frac", better: "lower"},
	{name: "mnn.allocs_per_op", unit: "count", better: "lower"},
	{name: "mnn.alloc_bytes_per_op", unit: "bytes", better: "lower"},
	{name: "mnn.thread_speedup", unit: "x", better: "higher"},
	{name: "mnn.open_ms", unit: "ms", better: "lower"},
	{name: "mnn.first_infer_ms", unit: "ms", better: "lower"},

	{name: "converter.load_ms", unit: "ms", better: "lower"},
	{name: "converter.model_mib", unit: "MiB", better: "lower"},
	{name: "optimizer.optimize_ms", unit: "ms", better: "lower"},
	{name: "optimizer.nodes_before", unit: "count", better: "lower"},
	{name: "optimizer.nodes_after", unit: "count", better: "lower"},
	{name: "session.prepare_ms", unit: "ms", better: "lower"},

	{name: "session.steps", unit: "count", better: "lower"},
	{name: "session.per_step_overhead_us", unit: "us", better: "lower"},
	{name: "session.op.conv1x1_ms", unit: "ms", better: "lower"},
	{name: "session.op.conv_dw_ms", unit: "ms", better: "lower"},
	{name: "session.op.conv3x3_ms", unit: "ms", better: "lower"},
	{name: "session.op.conv_other_ms", unit: "ms", better: "lower"},
	{name: "session.op.fc_ms", unit: "ms", better: "lower"},
	{name: "session.op.pool_ms", unit: "ms", better: "lower"},
	{name: "session.op.matmul_ms", unit: "ms", better: "lower"},
	{name: "session.op.gelu_ms", unit: "ms", better: "lower"},
	{name: "session.op.softmax_ms", unit: "ms", better: "lower"},
	{name: "session.op.layernorm_ms", unit: "ms", better: "lower"},
	{name: "session.op.elementwise_ms", unit: "ms", better: "lower"},
	{name: "session.op.layout_ms", unit: "ms", better: "lower"},
	{name: "session.op.other_ms", unit: "ms", better: "lower"},

	{name: "kernels.total_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "kernels.conv1x1_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "kernels.conv_dw_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "kernels.conv3x3_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "kernels.matmul_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "kernels.gelu_melem_s", unit: "Melem/s", better: "higher"},

	{name: "matmul.packedb_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "matmul.packb_ms", unit: "ms", better: "lower"},
	{name: "matmul.strassen_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "matmul.int8_gops", unit: "Gop/s", better: "higher"},

	{name: "sched.dispatch_us", unit: "us", better: "lower"},
	{name: "sched.scaling_efficiency", unit: "frac", better: "higher"},

	{name: "memory.arena_mib", unit: "MiB", better: "lower"},
	{name: "memory.no_reuse_mib", unit: "MiB", better: "lower"},
	{name: "memory.reuse_ratio", unit: "frac", better: "lower"},

	{name: "quant.int8_conv_frac", unit: "frac", better: "higher"},
	{name: "quant.boundaries", unit: "count", better: "lower"},
	{name: "quant.max_abs_err", unit: "abs", better: "lower"},

	{name: "serve.http_rtt_us", unit: "us", better: "lower"},
	{name: "serve.decode_us", unit: "us", better: "lower"},
	{name: "serve.infer_with_us", unit: "us", better: "lower"},
	{name: "serve.engine_infer_us", unit: "us", better: "lower"},
	{name: "serve.model_overhead_us", unit: "us", better: "lower"},
	{name: "serve.encode_us", unit: "us", better: "lower"},
	{name: "serve.http_overhead_us", unit: "us", better: "lower"},
	{name: "serve.body_kib", unit: "KiB", better: "lower"},
	{name: "serve.resp_kib", unit: "KiB", better: "lower"},
	{name: "serve.alloc_kib_per_req", unit: "KiB", better: "lower"},
	{name: "serve.batch_flushes", unit: "count", better: "lower"},
	{name: "serve.batch_fill_ratio", unit: "frac", better: "higher"},
	{name: "serve.batch_cost_us", unit: "us", better: "lower"},

	{name: "admission.acquire_release_us", unit: "us", better: "lower"},
	{name: "admission.queue_wait_p50_us", unit: "us", better: "lower"},
	{name: "admission.shed", unit: "count", better: "lower"},

	{name: "mesh.hop_overhead_us", unit: "us", better: "lower"},
}

// unitOf finds a metric's unit in either table ("" for a diagnostic).
func unitOf(name string) string {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range tab {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}
