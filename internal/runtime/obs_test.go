package runtime

import (
	"context"
	"log"
	"log/slog"
	"strings"
	"sync"
	"testing"

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
// trace sampling) and checks the three observability layers agree: registry
// counters match Snapshot, trace histograms saw every batch, and published
// answers carry the trace origin through to subscribers.
func TestObservedRuntime(t *testing.T) {
	reg := metrics.NewRegistry()
	h := &captureHandler{}
	cfg := testConfig(t, 2)
	cfg.Budget = 100
	cfg.Metrics = reg
	cfg.TraceSample = 1
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

	const batches = 10
	for i := 0; i < batches; i++ {
		if err := rt.IngestBatch(streamEvents("s", 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	snap := rt.Snapshot()

	if len(answers) == 0 {
		t.Fatal("no answers published")
	}
	for _, a := range answers {
		if a.TraceNanos == 0 {
			t.Fatalf("answer %s/%d missing TraceNanos under TraceSample=1", a.Stream, a.WindowIndex)
		}
	}

	// Registry func counters read the same atomics Snapshot does.
	var regEventsIn, regDecisions float64
	var traceBatches, e2eCount float64
	for _, s := range reg.Gather() {
		switch s.Name {
		case "ppm_runtime_events_in_total":
			regEventsIn += s.Value
		case "ppm_budget_decisions_total":
			regDecisions += s.Value
		case "ppm_trace_batches_total":
			traceBatches = s.Value
		case "ppm_e2e_ingest_publish_seconds":
			e2eCount = float64(s.Hist.Count)
		}
	}
	if want := float64(snap.Totals().EventsIn); regEventsIn != want {
		t.Errorf("registry events_in = %v, snapshot = %v", regEventsIn, want)
	}
	if regDecisions == 0 {
		t.Errorf("no budget decisions recorded in registry")
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
