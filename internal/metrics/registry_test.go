package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("ppm_test_events_total", "events", L("shard", "0"))
	c2 := r.Counter("ppm_test_events_total", "events", L("shard", "0"))
	if c1 != c2 {
		t.Fatalf("same name+labels returned distinct counters")
	}
	c3 := r.Counter("ppm_test_events_total", "events", L("shard", "1"))
	if c1 == c3 {
		t.Fatalf("distinct labels returned same counter")
	}
	h1 := r.Histogram("ppm_test_latency_seconds", "latency")
	h2 := r.Histogram("ppm_test_latency_seconds", "latency")
	if h1 != h2 {
		t.Fatalf("same histogram name returned distinct histograms")
	}
}

func TestRegistryLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("ppm_test_depth_total", "", L("a", "1"), L("b", "2"))
	b := r.Counter("ppm_test_depth_total", "", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatalf("label order changed series identity")
	}
	// A collector's series have the same identity: reordered labels are a
	// duplicate.
	r.Collect(func(emit Emit) {
		emit("ppm_test_level", "", KindGauge, 1, L("a", "1"), L("b", "2"))
		emit("ppm_test_level", "", KindGauge, 2, L("b", "2"), L("a", "1"))
	})
	mustPanic(t, "reordered collector labels", func() { r.Gather() })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestRegistryNamingLint(t *testing.T) {
	r := NewRegistry()
	mustPanic(t, "no prefix", func() { r.Counter("events_total", "") })
	mustPanic(t, "uppercase", func() { r.Counter("ppm_Events_total", "") })
	mustPanic(t, "double underscore", func() { r.Counter("ppm__events_total", "") })
	mustPanic(t, "trailing underscore", func() { r.Counter("ppm_depth_", "") })
	mustPanic(t, "counter suffix", func() { r.Counter("ppm_events", "") })
	mustPanic(t, "histogram suffix", func() { r.Histogram("ppm_latency", "") })
	mustPanic(t, "bad label key", func() { r.Counter("ppm_x_total", "", L("0bad", "v")) })
	mustPanic(t, "dup label key", func() { r.Counter("ppm_y_total", "", L("k", "1"), L("k", "2")) })

	r.Counter("ppm_kind_total", "")
	mustPanic(t, "kind mismatch", func() { r.Histogram("ppm_kind_total", "") })

	// Collectors are linted at Gather, one bad emission per registry.
	for name, emit := range map[string]func(Emit){
		"collector bad name":       func(e Emit) { e("ppm_Bad_total", "", KindCounter, 1) },
		"collector counter suffix": func(e Emit) { e("ppm_events", "", KindCounter, 1) },
		"collector gauge _total":   func(e Emit) { e("ppm_level_total", "", KindGauge, 1) },
		"collector histogram":      func(e Emit) { e("ppm_wait_seconds", "", KindHistogram, 1) },
		"collector bad label":      func(e Emit) { e("ppm_level", "", KindGauge, 1, L("0bad", "v")) },
		"collector duplicate": func(e Emit) {
			e("ppm_level", "", KindGauge, 1, L("k", "v"))
			e("ppm_level", "", KindGauge, 2, L("k", "v"))
		},
		"collector instrument clash": func(e Emit) { e("ppm_kind_total", "", KindCounter, 1) },
		"collector histogram clash":  func(e Emit) { e("ppm_wait_seconds", "", KindGauge, 1) },
	} {
		cr := NewRegistry()
		cr.Counter("ppm_kind_total", "")
		cr.Histogram("ppm_wait_seconds", "")
		cr.Collect(emit)
		mustPanic(t, name, func() { cr.Gather() })
	}

	// Two collectors emitting the same series — one layer registered twice
	// on a registry — panic too.
	twice := NewRegistry()
	for i := 0; i < 2; i++ {
		twice.Collect(func(e Emit) { e("ppm_fn_total", "", KindCounter, 1) })
	}
	mustPanic(t, "dup collector", func() { twice.Gather() })
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Counter("not even a valid name", "").Inc() // nil registry skips validation
	r.Histogram("y", "").Observe(time.Second)
	r.Collect(func(e Emit) { t.Fatal("nil registry ran a collector") })
	if g := r.Gather(); g != nil {
		t.Fatalf("nil Gather = %v", g)
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("ppm_events_in_total", "Events admitted.", L("shard", "0")).Add(5)
	r.Counter("ppm_events_in_total", "Events admitted.", L("shard", "1")).Add(7)
	r.Collect(func(emit Emit) {
		emit("ppm_conns_open", "Open connections.", KindGauge, 1)
		emit("ppm_epoch", "Control epoch.", KindGauge, 42)
	})
	h := r.Histogram("ppm_serve_seconds", "Serve latency.", L("tenant", `a"b\c`))
	h.Observe(100 * time.Nanosecond)
	h.Observe(100 * time.Nanosecond)
	h.Observe(3 * time.Millisecond)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP ppm_events_in_total Events admitted.\n",
		"# TYPE ppm_events_in_total counter\n",
		`ppm_events_in_total{shard="0"} 5` + "\n",
		`ppm_events_in_total{shard="1"} 7` + "\n",
		"# TYPE ppm_conns_open gauge\n",
		"ppm_conns_open 1\n",
		"ppm_epoch 42\n",
		"# TYPE ppm_serve_seconds histogram\n",
		`ppm_serve_seconds_bucket{tenant="a\"b\\c",le="+Inf"} 3` + "\n",
		`ppm_serve_seconds_count{tenant="a\"b\\c"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n---\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE ppm_events_in_total counter") != 1 {
		t.Errorf("TYPE line repeated per series:\n%s", out)
	}
	// Only non-empty buckets before +Inf: 3 observations in 2 buckets.
	if got := strings.Count(out, "ppm_serve_seconds_bucket"); got != 3 {
		t.Errorf("bucket lines = %d, want 3 (2 populated + Inf)\n%s", got, out)
	}
	// Cumulative bucket counts: the last finite bucket equals total count.
	if !strings.Contains(out, `le="+Inf"} 3`) {
		t.Errorf("+Inf bucket not cumulative total:\n%s", out)
	}
}

func TestGatherOrder(t *testing.T) {
	r := NewRegistry()
	r.Collect(func(emit Emit) {
		emit("ppm_z_metric", "", KindGauge, 1, L("shard", "0"))
		emit("ppm_y_metric", "", KindGauge, 2, L("shard", "0"))
	})
	r.Counter("ppm_b_metric_total", "")
	r.Counter("ppm_a_metric_total", "")
	r.Collect(func(emit Emit) {
		emit("ppm_x_metric", "", KindGauge, 3)
		emit("ppm_z_metric", "", KindGauge, 4, L("shard", "1"))
	})
	var got []string
	for _, s := range r.Gather() {
		got = append(got, s.Name)
	}
	// Instruments in registration order, then collector families in
	// first-emitted order with every series of a family together, even
	// across collectors.
	want := []string{"ppm_b_metric_total", "ppm_a_metric_total", "ppm_z_metric", "ppm_z_metric", "ppm_y_metric", "ppm_x_metric"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("gather order = %v, want %v", got, want)
	}
}
