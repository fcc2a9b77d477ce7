package main

// metricDef names one reported metric. The tables below are the benchmark's
// vocabulary: BENCHMARK.json lists exactly these names, units and
// directions (a test holds the two together), and later changes cite them.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the service sees; every workload
// reports all of them, measured with tracing off.
var endToEnd = []metricDef{
	{"events_per_s", "events/s", "higher", 0.25},
	{"answer_latency_p50_ms", "ms", "lower", 0.25},
	{"answer_latency_p95_ms", "ms", "lower", 0.25},
	{"cpu_us_per_event", "us", "lower", 0.25},
	{"quality_q", "ratio", "higher", 0.04},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run; they carry no
// bound. A layer the workload does not use reports 0.
var perLayer = []metricDef{
	// Front door: event and wire codecs, server admission.
	{Name: "event.encode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "event.decode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "event.decode_allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "event.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "wire.ingest_encode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "wire.ingest_decode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "wire.ingest_decode_allocs_per_batch", Unit: "count", Better: "lower"},
	{Name: "server.ingest_ack_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.self_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "server.wire_decode_busy_share", Unit: "ratio", Better: "lower"},
	{Name: "server.throttled", Unit: "count", Better: "lower"},
	// Serving modules.
	{Name: "runtime.windower_push_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "runtime.windower_allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "cep.plan_eval_ns_per_window", Unit: "ns", Better: "lower"},
	{Name: "cep.runs_dropped", Unit: "count", Better: "lower"},
	{Name: "core.process_windows_ns_per_window", Unit: "ns", Better: "lower"},
	{Name: "core.perturb_ns_per_window", Unit: "ns", Better: "lower"},
	{Name: "core.process_allocs_per_window", Unit: "count", Better: "lower"},
	{Name: "account.decide_ns_per_window", Unit: "ns", Better: "lower"},
	{Name: "account.admitted", Unit: "count", Better: "higher"},
	{Name: "account.denied_or_suppressed", Unit: "count", Better: "lower"},
	{Name: "durable.stage_commit_ns_per_window", Unit: "ns", Better: "lower"},
	{Name: "durable.wal_bytes_per_window", Unit: "B", Better: "lower"},
	{Name: "durable.commit_mean_us", Unit: "us", Better: "lower"},
	{Name: "durable.fsync_mean_us", Unit: "us", Better: "lower"},
	// Runtime as a whole: shard hop and bus.
	{Name: "runtime.ingest_batch_call_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "runtime.ingest_serve_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "runtime.self_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "runtime.windows_served", Unit: "count", Better: "higher"},
	{Name: "runtime.panes_closed", Unit: "count", Better: "higher"},
	{Name: "runtime.late_dropped", Unit: "count", Better: "lower"},
	{Name: "runtime.ingest_dropped", Unit: "count", Better: "lower"},
	{Name: "runtime.shard_skew", Unit: "ratio", Better: "lower"},
	// Delivery.
	{Name: "wire.answer_encode_ns_per_answer", Unit: "ns", Better: "lower"},
	{Name: "wire.answer_decode_ns_per_answer", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_answer", Unit: "B", Better: "lower"},
	{Name: "server.answer_wait_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.wire_encode_busy_share", Unit: "ratio", Better: "lower"},
	{Name: "server.answers_sent", Unit: "count", Better: "higher"},
	{Name: "server.answers_dropped", Unit: "count", Better: "lower"},
	{Name: "server.gaps_sent", Unit: "count", Better: "lower"},
	// Client, load generator, process.
	{Name: "client.answer_latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.answer_latency_max_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.build_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "loadgen.generate_s", Unit: "s", Better: "lower"},
	{Name: "process.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "process.alloc_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "process.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "process.peak_heap_mb", Unit: "MB", Better: "lower"},
	// The ladder as a whole, the trace's own cost, and the failure count
	// (always 0 on a correct run, so it cannot be a bounded metric).
	{Name: "ladder.sum_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "ladder.residual_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
	{Name: "failed_ratio", Unit: "ratio", Better: "lower"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report pairs measured values with the table's units; it panics on a name
// the table does not list or a value the run forgot, so the vocabulary and
// the code cannot drift apart.
func report(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			panic("bench: metric " + d.Name + " was not measured")
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(out) != len(values) {
		for name := range values {
			if _, ok := out[name]; !ok {
				panic("bench: metric " + name + " is not in the table")
			}
		}
	}
	return out
}
