package runtime

import (
	"context"
	"log/slog"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"patterndp/internal/metrics"
)

// runtimeObs is the runtime's instrumentation state: latency histograms for
// the serving pipeline plus the sampled event-lifecycle trace. It is nil
// when neither Config.Metrics nor Config.TraceSample is set, and every hot
// path gates on that nil — an unobserved runtime reads no clocks.
//
// The trace follows a sampled ingest batch through its pipeline stages:
//
//	ingest admission → shard hop (channel dwell) → pane tally + window
//	decision (serve) → WAL commit + publish → per-session delivery
//
// Stage durations land in the ppm_trace_* histograms, the end-to-end
// ingest→publish latency in ppm_e2e_ingest_publish_seconds, and each traced
// batch emits one structured slog record. Answers produced while serving a
// traced batch carry Answer.TraceNanos so downstream serving layers (the
// network session writer) can extend the trace to delivery.
type runtimeObs struct {
	// admit measures IngestBatch admission: routing plus the backpressure
	// wait until every sub-batch is accepted by its shard channel.
	admit *metrics.Histogram
	// serve measures one shard emit — pane/window serving latency from
	// closed windows to published (or deferred) answers — per shard.
	serve []*metrics.Histogram
	// rebuild measures one private-set epoch applied to a shard: the
	// mechanism factory plus the engine build, during which the shard
	// serves nothing.
	rebuild []*metrics.Histogram

	// Trace-stage histograms (sampled batches only).
	hop          *metrics.Histogram
	stageServe   *metrics.Histogram
	stagePublish *metrics.Histogram
	e2ePublish   *metrics.Histogram
	traced       *metrics.Counter

	// traceEvery selects every n-th ingest batch for tracing (0 disables);
	// traceCtr is the shared sampling counter.
	traceEvery uint64
	traceCtr   atomic.Uint64
}

func newRuntimeObs(cfg Config) *runtimeObs {
	reg := cfg.Metrics // nil-safe: detached instruments when tracing without a registry
	o := &runtimeObs{
		admit:        reg.Histogram("ppm_ingest_admit_seconds", "IngestBatch admission latency: shard routing plus backpressure wait."),
		serve:        make([]*metrics.Histogram, cfg.Shards),
		rebuild:      make([]*metrics.Histogram, cfg.Shards),
		hop:          reg.Histogram("ppm_trace_shard_hop_seconds", "Traced batches: ingest-channel dwell until the shard dequeues."),
		stageServe:   reg.Histogram("ppm_trace_serve_stage_seconds", "Traced batches: pane tally and window decision stage."),
		stagePublish: reg.Histogram("ppm_trace_publish_stage_seconds", "Traced batches: WAL group commit and answer publish stage."),
		e2ePublish:   reg.Histogram("ppm_e2e_ingest_publish_seconds", "Traced batches: end-to-end ingest admission to answer publish."),
		traced:       reg.Counter("ppm_trace_batches_total", "Ingest batches selected for lifecycle tracing."),
	}
	for i := range o.serve {
		shard := metrics.L("shard", strconv.Itoa(i))
		o.serve[i] = reg.Histogram("ppm_serve_window_seconds", "Per-shard window serving latency of one emit (closed windows to published answers).", shard)
		o.rebuild[i] = reg.Histogram("ppm_control_rebuild_seconds", "Per-shard stall of one private-set epoch: mechanism factory plus engine build, between two windows.", shard)
	}
	if cfg.TraceSample > 0 {
		o.traceEvery = uint64(math.Round(1 / cfg.TraceSample))
		if o.traceEvery == 0 {
			o.traceEvery = 1
		}
	}
	return o
}

// sampleTrace decides whether the current ingest batch is traced, returning
// its trace origin timestamp (unix nanoseconds) or 0. start is the batch's
// admission start, already read by the caller.
func (o *runtimeObs) sampleTrace(start time.Time) int64 {
	if o.traceEvery == 0 {
		return 0
	}
	if o.traceCtr.Add(1)%o.traceEvery != 0 {
		return 0
	}
	return start.UnixNano()
}

// finishTrace closes out one traced batch on the shard goroutine: tHop is
// when the shard dequeued the batch, tServed when its last event finished
// serving, and t0 the admission origin. Called after the message-level WAL
// group commit and deferred publish, so "publish" covers both.
func (o *runtimeObs) finishTrace(shard int, events int64, t0 int64, tHop, tServed time.Time) {
	now := time.Now()
	hop := tHop.Sub(time.Unix(0, t0))
	serve := tServed.Sub(tHop)
	publish := now.Sub(tServed)
	e2e := now.Sub(time.Unix(0, t0))
	o.hop.Observe(hop)
	o.stageServe.Observe(serve)
	o.stagePublish.Observe(publish)
	o.e2ePublish.Observe(e2e)
	o.traced.Inc()
	slog.Default().LogAttrs(context.Background(), slog.LevelInfo, "ppm.trace",
		slog.Int("shard", shard),
		slog.Int64("events", events),
		slog.Duration("hop", hop),
		slog.Duration("serve", serve),
		slog.Duration("publish", publish),
		slog.Duration("e2e", e2e),
	)
}

// registerMetrics reports the runtime's counters and gauges — per-shard
// serving stats, control-plane epochs, and the budget ledger — through one
// registry collector over Snapshot, so a scrape reads what /statsz does and
// walks the ledger once. Called once from New; a Registry must back at most
// one Runtime (Gather panics on the duplicate series).
func (rt *Runtime) registerMetrics(reg *metrics.Registry) {
	reg.Collect(func(emit metrics.Emit) {
		st := rt.Snapshot()
		counter := func(name, help string, v int64, labels ...metrics.Label) {
			emit(name, help, metrics.KindCounter, float64(v), labels...)
		}
		for _, sh := range st.Shards {
			l := metrics.L("shard", strconv.Itoa(sh.Shard))
			counter("ppm_runtime_events_in_total", "Events accepted from ingest.", sh.EventsIn, l)
			counter("ppm_runtime_windows_closed_total", "Windows cut and served.", sh.WindowsClosed, l)
			counter("ppm_runtime_panes_closed_total", "Panes cut by the shard's windowers.", sh.PanesClosed, l)
			counter("ppm_runtime_answers_emitted_total", "Released answers handed to at least one sink.", sh.AnswersEmitted, l)
			emit("ppm_runtime_queries_demanded", "Target queries the shard evaluates per window: those some sink listens to (all, with a subscribe-all sink).", metrics.KindGauge, float64(sh.QueriesDemanded), l)
			counter("ppm_runtime_streams_opened_total", "Stream states opened on the shard.", sh.Streams, l)
			counter("ppm_runtime_streams_evicted_total", "Idle stream states flushed under EvictAfter.", sh.StreamsEvicted, l)
			for _, d := range []struct {
				reason string
				n      int64
			}{{"late", sh.DroppedLate}, {"future", sh.DroppedFuture}, {"failed", sh.DroppedFailed}} {
				counter("ppm_runtime_dropped_events_total", "Events dropped, by reason: late (lateness policy), future (Horizon), failed (shard failed).", d.n, l, metrics.L("reason", d.reason))
			}
		}
		emit("ppm_runtime_shards", "Configured serving shards.", metrics.KindGauge, float64(len(st.Shards)))
		emit("ppm_runtime_window_overlap", "Panes covering each served window (width/slide).", metrics.KindGauge, float64(st.Overlap))
		emit("ppm_runtime_epoch", "Current control-plane epoch.", metrics.KindGauge, float64(st.Epoch))
		emit("ppm_runtime_subscriptions_open", "Live answer-bus subscriptions.", metrics.KindGauge, float64(st.Subscriptions))
		b := st.Budget
		if b == nil {
			return
		}
		emit("ppm_budget_epoch", "Current budget epoch.", metrics.KindGauge, float64(b.Epoch))
		emit("ppm_budget_grant_epsilon", "Per-stream, per-epoch ε grant.", metrics.KindGauge, float64(b.Grant))
		counter("ppm_budget_rotations_total", "Applied budget-epoch rotations.", b.Rotations)
		for _, d := range []struct {
			decision string
			n        int64
		}{{"admitted", b.Admitted}, {"denied", b.Denied}, {"suppressed", b.Suppressed}, {"throttled", b.Throttled}} {
			counter("ppm_budget_decisions_total", "Window releases by admission decision.", d.n, metrics.L("decision", d.decision))
		}
		emit("ppm_budget_spent_epsilon", "Lifetime ε spend: live streams' current-epoch spend plus the retired archive.", metrics.KindGauge, float64(b.Spent)+float64(b.Retired))
		emit("ppm_budget_streams", "Live stream ledgers.", metrics.KindGauge, float64(b.Streams))
		emit("ppm_budget_exhausted_streams", "Live streams whose remaining grant no longer covers one release.", metrics.KindGauge, float64(b.Exhausted))
	})
}
