package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"time"

	"patterndp/internal/metrics"
)

// options are one run's parameters.
type options struct {
	workload string
	seed     int64
	// seconds is how long the run measures: the timed section of the
	// end-to-end loop, or, traced, the untraced loop, the traced loop and
	// the ladder together.
	seconds time.Duration
	warmup  time.Duration
	trace   bool
	// workdir holds everything the run writes: temp WAL directories (removed
	// again) and the trace dump.
	workdir string
	// setups overrides how often set-up is repeated (0 = the default
	// policy below); tests set it to 1.
	setups int
	// log receives the human-readable report; the JSON line goes elsewhere.
	log io.Writer
}

// runResult is one run's outcome, in the shape of the JSON result line.
type runResult struct {
	Workload  string                 `json:"workload,omitempty"`
	Seed      int64                  `json:"seed,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// warmup is the untimed start of every loop: caches fill, the connections'
// buffers and the rings reach their working size.
const warmup = 2 * time.Second

// Set-up is repeated and its median reported, so one slow listen or fsync
// does not decide setup_s: at least minSetups times, then until the set-up
// phase — set-ups, the tear-downs between them and the untimed collections —
// has taken setupBudget, at most maxSetups times. The cheap workloads' 2 ms
// set-ups get 50-150 repetitions, the AdaptivePPM fit 5.
const (
	minSetups   = 5
	maxSetups   = 200
	setupBudget = 2 * time.Second
)

// verdict folds one loop's checks into the run's counts.
type verdict struct {
	attempted, failed int64
	correct           bool
}

func (v *verdict) add(name string, res *loopResult, expectedQ float64, log io.Writer) {
	v.attempted += res.batches + res.expected
	v.failed += res.bad.total()
	q := res.conf.Q(alpha)
	switch {
	case res.err != nil:
		fmt.Fprintf(log, "%s: FAILED: %v\n", name, res.err)
	case res.bad.total() > 0:
		fmt.Fprintf(log, "%s: FAILED checks: %+v\n", name, res.bad)
	case res.samples == 0:
		fmt.Fprintf(log, "%s: FAILED: no answers in the timed section\n", name)
	case math.Abs(q-expectedQ) > qualitySlack(res.conf.Total()):
		fmt.Fprintf(log, "%s: FAILED: quality_q %.4f is not within %.3f of the expected %.4f\n", name, q, qualitySlack(res.conf.Total()), expectedQ)
	default:
		return
	}
	v.correct = false
}

// run executes one benchmark run and checks its outputs. The error is for
// runs that could not be carried out at all; a run whose checks fail returns
// a result with Correct false.
func run(ctx context.Context, o options) (*runResult, error) {
	wl, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	genStart := time.Now()
	in, err := generate(wl, o.seed)
	if err != nil {
		return nil, err
	}
	ref := newReference(in)
	return runOn(ctx, o, in, ref, time.Since(genStart).Seconds())
}

// runOn is run on an already generated input.
func runOn(ctx context.Context, o options, in *input, ref *reference, generateS float64) (*runResult, error) {
	wl := in.wl
	fmt.Fprintf(o.log, "%s seed %d: input %s, %d queries, subscribed %v, %d batches/cycle/conn, generated in %.2fs\n",
		wl.Name, o.seed, in.hash[:12], len(in.queries), in.subscribed, in.conns[0].cycleBatches(), generateS)

	res := &runResult{Workload: wl.Name, Seed: o.seed}
	v := verdict{correct: true}
	if o.trace {
		values, err := runTraced(ctx, o, in, ref, &v)
		if err != nil {
			return nil, err
		}
		values["loadgen.generate_s"] = generateS
		values["failed_ratio"] = float64(v.failed) / float64(max(v.attempted, 1))
		res.Metrics = report(perLayer, values)
	} else {
		values, err := runUntraced(ctx, o, in, ref, &v)
		if err != nil {
			return nil, err
		}
		res.Metrics = report(endToEnd, values)
	}
	res.Correct, res.Attempted, res.Failed = v.correct, max(v.attempted, 1), v.failed
	return res, nil
}

// runUntraced measures the end-to-end metrics: repeated set-up, then the
// loop with tracing off.
func runUntraced(ctx context.Context, o options, in *input, ref *reference, v *verdict) (map[string]float64, error) {
	var sys *system
	var setups []float64
	phase := time.Now()
	more := func() bool {
		if o.setups > 0 {
			return len(setups) < o.setups
		}
		return len(setups) < minSetups || (time.Since(phase) < setupBudget && len(setups) < maxSetups)
	}
	for more() {
		if sys != nil {
			if err := sys.tearDown(); err != nil {
				return nil, err
			}
		}
		// Collect and hand free memory back first, untimed: no collection
		// of the generator's garbage lands inside some set-ups and not
		// others, and every set-up allocates its rings from fresh pages
		// instead of sometimes re-zeroing recycled ones.
		debug.FreeOSMemory()
		start := time.Now()
		var err error
		if sys, err = setUp(in, o.workdir, conns, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if ctx.Err() != nil {
			break
		}
	}
	expectedQ, err := ref.expectedQuality(sys.mech)
	if err != nil {
		sys.tearDown()
		return nil, err
	}
	res := runLoop(ctx, sys, ref, loopConfig{warmup: o.warmup, timed: o.seconds})
	if err := sys.tearDown(); err != nil {
		return nil, err
	}
	v.add("end-to-end loop", res, expectedQ, o.log)
	q := res.conf.Q(alpha)
	fmt.Fprintf(o.log, "  %d events in %.2fs over %d batches; %d latency samples; %d answers owed; quality %.4f (expected %.4f, %v); set-up x%d\n",
		res.events, res.wall.Seconds(), res.batches, res.samples, res.expected, q, expectedQ, res.conf, len(setups))
	fmt.Fprintf(o.log, "  events/s per slice: %.0f\n", res.sliceEventsPerS)
	if in.wl.Pace > 0 {
		fmt.Fprintf(o.log, "  open loop: generator lateness p99 %.3f ms\n", res.lateP99Ms)
	}
	return map[string]float64{
		"events_per_s":          res.eventsPerS,
		"answer_latency_p50_ms": res.p50Ms,
		"answer_latency_p95_ms": res.p95Ms,
		"cpu_us_per_event":      res.cpuUsPerEvent,
		"quality_q":             q,
		"setup_s":               median(setups),
	}, nil
}

// runTraced measures the per-layer metrics. The time is split three ways:
// the loop untraced (the baseline of trace.overhead_ratio), the loop again
// with spans recorded and a metrics registry attached, and the ladder.
func runTraced(ctx context.Context, o options, in *input, ref *reference, v *verdict) (map[string]float64, error) {
	loopTime := o.seconds * 3 / 10
	rec := &recorder{}

	loop := func(name string, cfg loopConfig, reg *metrics.Registry) (*loopResult, []metrics.Series, error) {
		sys, err := setUp(in, o.workdir, conns, reg)
		if err != nil {
			return nil, nil, err
		}
		expectedQ, err := ref.expectedQuality(sys.mech)
		if err != nil {
			sys.tearDown()
			return nil, nil, err
		}
		res := runLoop(ctx, sys, ref, cfg)
		series := reg.Gather()
		if err := sys.tearDown(); err != nil {
			return nil, nil, err
		}
		v.add(name, res, expectedQ, o.log)
		return res, series, nil
	}
	plain, _, err := loop("untraced loop", loopConfig{warmup: o.warmup, timed: loopTime}, nil)
	if err != nil {
		return nil, err
	}
	traced, series, err := loop("traced loop", loopConfig{warmup: o.warmup, timed: loopTime, traced: true}, metrics.NewRegistry())
	if err != nil {
		return nil, err
	}
	rec.add(traced.spans)

	ld, err := newLadder(in, o.workdir)
	if err != nil {
		return nil, err
	}
	err = ld.run(ctx, o.seconds-2*loopTime)
	if cerr := ld.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	lr := ld.res
	if lr.batches == 0 {
		return nil, fmt.Errorf("ladder: no timed batches in %v", o.seconds-2*loopTime)
	}
	rec.add(lr.spans)
	if path, err := rec.write(o.workdir, in.wl.Name, o.seed); err != nil {
		return nil, err
	} else {
		fmt.Fprintf(o.log, "  %d spans written to %s (%d dropped)\n", len(rec.spans), path, rec.dropped)
	}

	per := func(ns int64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	hist := func(name string) metrics.HistogramSnapshot {
		var h metrics.HistogramSnapshot
		for _, s := range series {
			if s.Name == name && s.Hist != nil {
				h = h.Merge(*s.Hist)
			}
		}
		return h
	}
	wall := traced.wall + o.warmup
	totals := traced.rt.Totals()
	var sent, dropped, gaps, throttled int64
	for _, t := range traced.srv.Tenants {
		sent += t.AnswersSent
		dropped += t.AnswersDropped
		gaps += t.GapsSent
		throttled += t.Throttled
	}
	var admitted, refused int64
	if b := traced.rt.Budget; b != nil {
		admitted, refused = b.Admitted, b.Denied+b.Suppressed+b.Throttled
	}
	skew := 0.0
	if mean := traced.rt.Balance().Mean; mean > 0 {
		skew = traced.rt.Balance().Max / mean
	}
	roundTrip := per(lr.total["loopback.round_trip"], lr.events)
	values := map[string]float64{
		"event.encode_ns_per_event":              per(lr.total["event.encode"], lr.events),
		"event.decode_ns_per_event":              per(lr.total["event.decode"], lr.events),
		"event.decode_allocs_per_event":          per(int64(lr.eventDecodeAllocs), lr.allocEvents),
		"event.bytes_per_event":                  per(lr.eventBytes, lr.events),
		"wire.ingest_encode_ns_per_event":        per(lr.total["wire.ingest_encode"], lr.events),
		"wire.ingest_decode_ns_per_event":        per(lr.total["wire.ingest_decode"], lr.events),
		"wire.ingest_decode_allocs_per_batch":    per(int64(lr.wireDecodeAllocs), lr.allocBatches),
		"server.ingest_ack_us_p50":               traced.ackUsP50,
		"server.self_ns_per_event":               per(lr.self("loopback.round_trip"), lr.events),
		"server.wire_decode_busy_share":          hist("ppm_wire_decode_seconds").Sum.Seconds() / wall.Seconds(),
		"server.throttled":                       float64(throttled),
		"runtime.windower_push_ns_per_event":     per(lr.total["runtime.windower_push"], lr.events),
		"runtime.windower_allocs_per_event":      per(int64(lr.pushAllocs), lr.allocEvents),
		"cep.plan_eval_ns_per_window":            per(lr.total["cep.plan_eval"], lr.windows),
		"cep.runs_dropped":                       float64(traced.rt.RunsDropped),
		"core.process_windows_ns_per_window":     per(lr.total["core.process_windows"], lr.windows),
		"core.perturb_ns_per_window":             per(lr.total["core.perturb"], lr.windows),
		"core.process_allocs_per_window":         per(int64(lr.procAllocs), lr.allocWindows),
		"account.decide_ns_per_window":           per(lr.total["account.decide"], lr.windows),
		"account.admitted":                       float64(admitted),
		"account.denied_or_suppressed":           float64(refused),
		"durable.stage_commit_ns_per_window":     per(lr.total["durable.stage_commit"], lr.windows),
		"durable.wal_bytes_per_window":           per(lr.walBytes, lr.walWindows),
		"durable.commit_mean_us":                 float64(hist("ppm_wal_commit_seconds").Mean()) / 1e3,
		"durable.fsync_mean_us":                  float64(hist("ppm_wal_fsync_seconds").Mean()) / 1e3,
		"runtime.ingest_batch_call_ns_per_event": per(lr.total["runtime.ingest_batch_call"], lr.events),
		"runtime.ingest_serve_ns_per_event":      per(lr.total["runtime.ingest_serve"], lr.events),
		"runtime.self_ns_per_event":              per(lr.self("runtime.ingest_serve"), lr.events),
		"runtime.windows_served":                 float64(totals.WindowsClosed),
		"runtime.panes_closed":                   float64(totals.PanesClosed),
		"runtime.late_dropped":                   float64(totals.DroppedLate + totals.DroppedFuture),
		"runtime.ingest_dropped":                 float64(totals.DroppedIngest + totals.DroppedFailed),
		"runtime.shard_skew":                     skew,
		"wire.answer_encode_ns_per_answer":       per(lr.total["wire.answer_encode"], lr.answers),
		"wire.answer_decode_ns_per_answer":       per(lr.total["wire.answer_decode"], lr.answers),
		"wire.bytes_per_answer":                  per(lr.answerBytes, lr.answers),
		"server.answer_wait_us_p50":              traced.waitUsP50,
		"server.wire_encode_busy_share":          hist("ppm_wire_encode_seconds").Sum.Seconds() / wall.Seconds(),
		"server.answers_sent":                    float64(sent),
		"server.answers_dropped":                 float64(dropped),
		"server.gaps_sent":                       float64(gaps),
		"client.answer_latency_p99_ms":           traced.p99Ms,
		"client.answer_latency_max_ms":           traced.maxMs,
		"loadgen.late_p99_ms":                    traced.lateP99Ms,
		"loadgen.build_ns_per_event":             traced.buildNsPerEvent,
		"process.allocs_per_event":               per(int64(traced.mallocs), traced.events),
		"process.alloc_bytes_per_event":          per(int64(traced.allocBytes), traced.events),
		"process.gc_pause_total_ms":              float64(traced.gcPauseNs) / 1e6,
		"process.peak_heap_mb":                   float64(traced.peakHeap) / (1 << 20),
		"ladder.sum_ns_per_event":                roundTrip,
		"ladder.residual_share":                  (traced.roundTripNsPerEvent - roundTrip) / traced.roundTripNsPerEvent,
		"trace.overhead_ratio":                   traced.eventsPerS / plain.eventsPerS,
	}

	// The ladder, rung by rung, for the reader: ns per event of self time
	// and its share of the serial round trip.
	fmt.Fprintf(o.log, "  ladder over %d batches (%d events, %d windows, %d answers), serial round trip %.0f ns/event; concurrent round trip %.0f ns/event\n",
		lr.batches, lr.events, lr.windows, lr.answers, roundTrip, traced.roundTripNsPerEvent)
	for _, rg := range rungs {
		self := per(lr.self(rg.name), lr.events)
		fmt.Fprintf(o.log, "    %-28s total %9.1f  self %9.1f ns/event  %5.1f%%\n", rg.name, per(lr.total[rg.name], lr.events), self, 100*self/roundTrip)
	}
	share := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += lr.self(n)
		}
		return float64(ns) / float64(lr.total["loopback.round_trip"])
	}
	fmt.Fprintf(o.log, "  shares of the serial round trip: front door (event+wire ingest+server) %.0f%%, serving (windower+cep+core+account+durable) %.0f%%, runtime hop+bus %.0f%%, answer codec+server %.0f%%\n",
		100*share("event.encode", "event.decode", "wire.ingest_encode", "wire.ingest_decode", "loopback.round_trip"),
		100*share("runtime.windower_push", "core.process_windows", "core.perturb", "cep.plan_eval", "account.decide", "durable.stage_commit"),
		100*share("runtime.ingest_serve", "runtime.ingest_batch_call"),
		100*share("wire.answer_encode", "wire.answer_decode", "loopback.round_trip"))
	return values, nil
}
