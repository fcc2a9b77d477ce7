package runtime

import (
	"context"
	"log"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"testing"

	"patterndp/internal/event"
	"patterndp/internal/metrics"
)

// captureHandler collects slog records for assertions.
type captureHandler struct {
	mu   sync.Mutex
	msgs []string
}

func (h *captureHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *captureHandler) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.msgs = append(h.msgs, r.Message)
	return nil
}
func (h *captureHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *captureHandler) WithGroup(string) slog.Handler      { return h }

// captureDefaultLog routes slog.Default() to h for the rest of the test,
// then restores both it and the log package's output, which SetDefault
// redirects.
func captureDefaultLog(t *testing.T, h slog.Handler) {
	prev, w, flags := slog.Default(), log.Writer(), log.Flags()
	slog.SetDefault(slog.New(h))
	t.Cleanup(func() {
		slog.SetDefault(prev)
		log.SetOutput(w)
		log.SetFlags(flags)
	})
}

// TestObservedRuntime drives a fully instrumented runtime (registry + 100%
// trace sampling) and checks the three observability layers agree: every
// registry counter and gauge reads the quiesced Snapshot, trace histograms
// saw every batch, and published answers carry the trace origin through to
// subscribers.
func TestObservedRuntime(t *testing.T) {
	reg := metrics.NewRegistry()
	h := &captureHandler{}
	cfg := testConfig(t, 3)
	cfg.Budget = 250
	cfg.Metrics = reg
	cfg.TraceSample = 1
	cfg.Horizon = 100
	cfg.Slide = 5 // two panes per window: panes and windows count apart
	captureDefaultLog(t, h)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("")
	if err != nil {
		t.Fatal(err)
	}
	var answers []Answer
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range sub.C() {
			answers = append(answers, a)
		}
	}()

	// Replaying stream s drops late events, its far-future event trips the
	// Horizon, and streams of different lengths spread distinct counts over
	// the shards, so a series swapped for another reads wrong.
	const batches = 10
	for i := 0; i < batches; i++ {
		if err := rt.IngestBatch(streamEvents("s", 3)); err != nil {
			t.Fatal(err)
		}
		if err := rt.IngestBatch(streamEvents("k"+strconv.Itoa(i), i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Ingest(event.New("a", 10_000).WithSource("s")); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	snap := rt.Snapshot()

	if len(answers) == 0 {
		t.Fatal("no answers published")
	}
	// Close flushes the streams' trailing windows outside any traced batch.
	// Stream s has exhausted its grant by then, so every answer it released
	// was served under a traced batch.
	for _, a := range answers {
		if a.Stream == "s" && a.TraceNanos == 0 {
			t.Fatalf("answer %s/%d missing TraceNanos under TraceSample=1", a.Stream, a.WindowIndex)
		}
	}

	// Every runtime and budget series agrees with the quiesced Snapshot:
	// the registry renders the same snapshot, per shard, reason and
	// decision.
	want := snapshotSeries(snap)
	var traceBatches, e2eCount float64
	for _, s := range reg.Gather() {
		switch {
		case strings.HasPrefix(s.Name, "ppm_runtime_") || strings.HasPrefix(s.Name, "ppm_budget_"):
			id := seriesID(s.Name, s.Labels...)
			v, ok := want[id]
			if !ok {
				t.Errorf("registry series %s not in the snapshot", id)
				continue
			}
			if s.Value != v {
				t.Errorf("%s = %v, snapshot = %v", id, s.Value, v)
			}
			delete(want, id)
		case s.Name == "ppm_trace_batches_total":
			traceBatches = s.Value
		case s.Name == "ppm_e2e_ingest_publish_seconds":
			e2eCount = float64(s.Hist.Count)
		}
	}
	for id := range want {
		t.Errorf("snapshot series %s missing from the registry", id)
	}
	if b := snap.Budget; b == nil || b.Admitted == 0 || snap.Totals().EventsIn == 0 {
		t.Errorf("the run recorded no events or budget decisions: %+v", snap)
	}
	if traceBatches < batches {
		t.Errorf("traced batches = %v, want >= %d", traceBatches, batches)
	}
	if e2eCount != traceBatches {
		t.Errorf("e2e observations = %v, traced batches = %v", e2eCount, traceBatches)
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.msgs) == 0 || h.msgs[0] != "ppm.trace" {
		t.Fatalf("no ppm.trace slog records captured: %v", h.msgs)
	}
}

// seriesID renders a series identity for comparisons: name and labels in
// the order given.
func seriesID(name string, labels ...metrics.Label) string {
	id := name
	for _, l := range labels {
		id += "," + l.Key + "=" + l.Value
	}
	return id
}

// snapshotSeries is what the runtime's /metrics series must read for st,
// derived field by field from the Stats documentation rather than from the
// collector, keyed by seriesID.
func snapshotSeries(st Stats) map[string]float64 {
	m := map[string]float64{
		"ppm_runtime_shards":             float64(len(st.Shards)),
		"ppm_runtime_window_overlap":     float64(st.Overlap),
		"ppm_runtime_epoch":              float64(st.Epoch),
		"ppm_runtime_subscriptions_open": float64(st.Subscriptions),
	}
	for _, sh := range st.Shards {
		l := metrics.L("shard", strconv.Itoa(sh.Shard))
		m[seriesID("ppm_runtime_events_in_total", l)] = float64(sh.EventsIn)
		m[seriesID("ppm_runtime_windows_closed_total", l)] = float64(sh.WindowsClosed)
		m[seriesID("ppm_runtime_panes_closed_total", l)] = float64(sh.PanesClosed)
		m[seriesID("ppm_runtime_answers_emitted_total", l)] = float64(sh.AnswersEmitted)
		m[seriesID("ppm_runtime_queries_demanded", l)] = float64(sh.QueriesDemanded)
		m[seriesID("ppm_runtime_streams_opened_total", l)] = float64(sh.Streams)
		m[seriesID("ppm_runtime_streams_evicted_total", l)] = float64(sh.StreamsEvicted)
		m[seriesID("ppm_runtime_dropped_events_total", l, metrics.L("reason", "late"))] = float64(sh.DroppedLate)
		m[seriesID("ppm_runtime_dropped_events_total", l, metrics.L("reason", "future"))] = float64(sh.DroppedFuture)
		m[seriesID("ppm_runtime_dropped_events_total", l, metrics.L("reason", "failed"))] = float64(sh.DroppedFailed)
	}
	if b := st.Budget; b != nil {
		m["ppm_budget_epoch"] = float64(b.Epoch)
		m["ppm_budget_grant_epsilon"] = float64(b.Grant)
		m["ppm_budget_rotations_total"] = float64(b.Rotations)
		m[seriesID("ppm_budget_decisions_total", metrics.L("decision", "admitted"))] = float64(b.Admitted)
		m[seriesID("ppm_budget_decisions_total", metrics.L("decision", "denied"))] = float64(b.Denied)
		m[seriesID("ppm_budget_decisions_total", metrics.L("decision", "suppressed"))] = float64(b.Suppressed)
		m[seriesID("ppm_budget_decisions_total", metrics.L("decision", "throttled"))] = float64(b.Throttled)
		m["ppm_budget_spent_epsilon"] = float64(b.Spent) + float64(b.Retired)
		m["ppm_budget_streams"] = float64(b.Streams)
		m["ppm_budget_exhausted_streams"] = float64(b.Exhausted)
	}
	return m
}

// TestUnobservedRuntimeHasNoObs checks the zero-config path stays
// uninstrumented (the overhead guarantee rests on the nil gate).
func TestUnobservedRuntimeHasNoObs(t *testing.T) {
	rt, err := New(testConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.obs != nil {
		t.Fatal("obs state allocated without Metrics or TraceSample")
	}
}

func TestTraceSampleValidation(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.1} {
		cfg := testConfig(t, 1)
		cfg.TraceSample = bad
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "TraceSample") {
			t.Errorf("TraceSample=%v: err = %v, want validation error", bad, err)
		}
	}
}
