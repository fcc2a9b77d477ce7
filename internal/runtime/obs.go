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
	log        *slog.Logger
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
		o.log = cfg.TraceLog
		if o.log == nil {
			o.log = slog.Default()
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
	if o.log != nil {
		o.log.LogAttrs(context.Background(), slog.LevelInfo, "ppm.trace",
			slog.Int("shard", shard),
			slog.Int64("events", events),
			slog.Duration("hop", hop),
			slog.Duration("serve", serve),
			slog.Duration("publish", publish),
			slog.Duration("e2e", e2e),
		)
	}
}

// registerMetrics exposes the runtime's existing counters — per-shard serving
// stats, control-plane epochs, and the budget ledger — as func-backed
// registry metrics, so scrapes read the same atomics Snapshot does with no
// double bookkeeping. Called once from New; a Registry must back at most one
// Runtime (func-backed series cannot be registered twice).
func (rt *Runtime) registerMetrics(reg *metrics.Registry) {
	counter := func(c *metrics.Counter) func() float64 {
		return func() float64 { return float64(c.Load()) }
	}
	for i := range rt.shards {
		sh := rt.shards[i]
		l := metrics.L("shard", strconv.Itoa(i))
		reg.CounterFunc("ppm_runtime_events_in_total", "Events accepted from ingest.", counter(&sh.stats.eventsIn), l)
		reg.CounterFunc("ppm_runtime_windows_closed_total", "Windows cut and served.", counter(&sh.stats.windowsClosed), l)
		reg.CounterFunc("ppm_runtime_panes_closed_total", "Panes cut by the shard's windowers.", counter(&sh.stats.panesClosed), l)
		reg.CounterFunc("ppm_runtime_answers_emitted_total", "Released answers published to the bus.", counter(&sh.stats.answersEmitted), l)
		reg.CounterFunc("ppm_runtime_streams_opened_total", "Stream states opened on the shard.", counter(&sh.stats.streams), l)
		reg.CounterFunc("ppm_runtime_streams_evicted_total", "Idle stream states flushed under EvictAfter.", counter(&sh.stats.streamsEvicted), l)
		for _, d := range []struct {
			reason string
			c      *metrics.Counter
		}{
			{"late", &sh.stats.droppedLate},
			{"future", &sh.stats.droppedFuture},
			{"ingest", &sh.stats.droppedIngest},
			{"failed", &sh.stats.droppedFailed},
		} {
			reg.CounterFunc("ppm_runtime_dropped_events_total", "Events dropped, by reason: late (lateness policy), future (Horizon), ingest (DropOldest backpressure), failed (shard failed).", counter(d.c), l, metrics.L("reason", d.reason))
		}
	}
	reg.GaugeFunc("ppm_runtime_shards", "Configured serving shards.", func() float64 { return float64(len(rt.shards)) })
	reg.GaugeFunc("ppm_runtime_window_overlap", "Panes covering each served window (width/slide).", func() float64 {
		return float64(rt.cfg.WindowWidth / rt.cfg.slideOrWidth())
	})
	reg.GaugeFunc("ppm_runtime_epoch", "Current control-plane epoch.", func() float64 { return float64(rt.ctl.Load().epoch) })
	reg.GaugeFunc("ppm_runtime_subscriptions_open", "Live answer-bus subscriptions.", func() float64 { return float64(rt.bus.count()) })
	if led := rt.ledger; led != nil {
		reg.GaugeFunc("ppm_budget_epoch", "Current budget epoch.", func() float64 { return float64(rt.ctl.Load().budgetEpoch) })
		reg.GaugeFunc("ppm_budget_grant_epsilon", "Per-stream, per-epoch ε grant.", func() float64 { return float64(led.Grant()) })
		reg.CounterFunc("ppm_budget_rotations_total", "Applied budget-epoch rotations.", func() float64 { return float64(led.Rotations()) })
		for _, d := range []struct {
			decision string
			pick     func(a, de, s, t int64) int64
		}{
			{"admitted", func(a, de, s, t int64) int64 { return a }},
			{"denied", func(a, de, s, t int64) int64 { return de }},
			{"suppressed", func(a, de, s, t int64) int64 { return s }},
			{"throttled", func(a, de, s, t int64) int64 { return t }},
		} {
			d := d
			reg.CounterFunc("ppm_budget_decisions_total", "Window releases by admission decision.", func() float64 {
				return float64(d.pick(led.Decisions()))
			}, metrics.L("decision", d.decision))
		}
		reg.GaugeFunc("ppm_budget_spent_epsilon", "Lifetime ε spend: live streams' current-epoch spend plus the retired archive.", func() float64 {
			s := led.Snapshot(uint64(rt.ctl.Load().budgetEpoch))
			return float64(s.Spent) + float64(s.Retired)
		})
		reg.GaugeFunc("ppm_budget_streams", "Live stream ledgers.", func() float64 {
			return float64(led.Snapshot(uint64(rt.ctl.Load().budgetEpoch)).Streams)
		})
		reg.GaugeFunc("ppm_budget_exhausted_streams", "Live streams whose remaining grant no longer covers one release.", func() float64 {
			return float64(led.Snapshot(uint64(rt.ctl.Load().budgetEpoch)).Exhausted)
		})
	}
}
