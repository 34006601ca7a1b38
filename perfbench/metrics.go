package main

// metricSpec names one reported metric. The lists below are the
// benchmark's contract: BENCHMARK.json at the repository root carries the
// same names, units, and directions (pinned by TestBenchmarkJSONMatches),
// and every workload emits every metric of the list its mode reports
// (pinned by TestWorkloadsEmitEveryMetric).
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are the user-visible metrics, reported with tracing off.
var endToEnd = []metricSpec{
	{"frames_per_s", "1/s", "higher"},
	{"epoch_ms_p50", "ms", "lower"},
	{"epoch_ms_p90", "ms", "lower"},
	{"frame_ms_p50", "ms", "lower"},
	{"frame_ms_p99", "ms", "lower"},
	{"cpu_ms_per_frame", "ms", "lower"},
	{"alloc_kb_per_frame", "KiB", "lower"},
	{"max_rss_mb", "MiB", "lower"},
	{"ok_ratio", "ratio", "higher"},
	{"setup_s", "s", "lower"},
}

// perLayer are the traced run's single-layer metrics. A workload that
// never calls into a layer reports that layer's metrics as 0.
var perLayer = []metricSpec{
	{"gateway.render_ms_per_epoch", "ms", "lower"},
	{"gateway.render_share", "ratio", "lower"},
	{"sim.render_us_per_frame", "us", "lower"},
	{"gateway.decode_ms_per_epoch", "ms", "lower"},
	{"gateway.ingest_ms_per_epoch", "ms", "lower"},
	{"gateway.control_ms_per_epoch", "ms", "lower"},
	{"gateway.epoch_ms_per_epoch", "ms", "lower"},
	{"gateway.rest_ms_per_epoch", "ms", "lower"},
	{"stream.segment_ns_per_sample", "ns", "lower"},
	{"stream.source_new_ms", "ms", "lower"},
	{"stream.match_ratio", "ratio", "higher"},
	{"pipeline.new_ms", "ms", "lower"},
	{"pipeline.submit_wait_us_per_frame", "us", "lower"},
	{"pipeline.drain_ms", "ms", "lower"},
	{"pipeline.decode_us_per_frame", "us", "lower"},
	{"pipeline.worker_busy_ratio", "ratio", "higher"},
	{"pipeline.scratch_miss_ratio", "ratio", "lower"},
	{"pipeline.detect_ratio", "ratio", "higher"},
	{"fxp.cycles_total", "cycles", "lower"},
	{"fxp.mcu_cycles_per_frame", "cycles", "lower"},
	{"trace.open_ms", "ms", "lower"},
	{"trace.read_us_per_record", "us", "lower"},
	{"server.bytes_per_frame_event", "B", "lower"},
	{"server.frames_dropped", "count", "lower"},
	{"server.queue_hwm", "count", "lower"},
	{"server.msgs_per_epoch", "count", "lower"},
	{"gateway.windows_per_epoch", "count", "lower"},
	{"mac.cmds_sent", "count", "lower"},
	{"mac.cmds_delivered", "count", "higher"},
	{"gateway.retx_scheduled", "count", "lower"},
	{"gateway.hops", "count", "lower"},
	{"gateway.rate_switches", "count", "lower"},
	{"flight.dumps_per_epoch", "count", "lower"},
	{"health.alerts_fired", "count", "lower"},
	{"bench.trace_overhead_ratio", "ratio", "lower"},
}

// unitOf looks a metric's unit up in either list.
func unitOf(name string) string {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
