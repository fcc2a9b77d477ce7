package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/dp"
	"patterndp/internal/metrics"
	"patterndp/internal/runtime"
)

// newObservedRuntime is newTestRuntime with the full observability stack on:
// a metric registry, 100% trace sampling, a budget ledger, and (optionally)
// durable state, so a scrape exercises every metric family the pipeline
// registers.
func newObservedRuntime(t testing.TB, reg *metrics.Registry, walDir string) *runtime.Runtime {
	t.Helper()
	pt, err := core.NewPatternType("secret", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	q, err := cep.ParseQuery("probe", "SEQ(a, b) WITHIN 10", 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runtime.Config{
		Shards:      2,
		WindowWidth: 10,
		MechanismFor: func(_ int, private []core.PatternType) (core.Mechanism, error) {
			return core.NewUniformPPM(dp.Epsilon(4), private...)
		},
		Private:     []core.PatternType{pt},
		Targets:     []cep.Query{q},
		Seed:        1,
		Budget:      dp.Epsilon(100),
		Metrics:     reg,
		TraceSample: 1,
	}
	if walDir != "" {
		cfg.Durability = &runtime.DurabilityConfig{Dir: walDir}
	}
	rt, err := runtime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// driveTenant connects one tenant, subscribes to everything, ingests four
// windows, and waits for the three answers they close to be delivered over
// the wire — so the scrape below sees live per-tenant serving and the
// delivery latency histogram, and (an ingest is acknowledged when it is
// queued, not when it is served) every ingested event has been counted by
// its shard: the last answer leaves only after the last message was served.
func driveTenant(t testing.TB, l *MemListener, token string) {
	t.Helper()
	c := dialTenant(t, l, token)
	sub, err := c.Subscribe("", 64)
	if err != nil {
		t.Fatal(err)
	}
	for w := int64(0); w < 4; w++ {
		if _, err := c.Ingest(windowEvents("s1", w)); err != nil {
			t.Fatal(err)
		}
	}
	for owed := 3; owed > 0; owed-- {
		select {
		case <-sub.C:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d answers never delivered", owed)
		}
	}
}

func adminGet(t testing.TB, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestAdminEndpoints scrapes a live admin handler backed by a serving
// runtime, a network server, and an active tenant: /metrics must cover the
// runtime, budget, tenant, and latency families; /healthz and /readyz must
// probe green; /statsz must decode to the same per-tenant stats; and a drain
// must flip /readyz to 503 while /healthz stays green.
func TestAdminEndpoints(t *testing.T) {
	reg := metrics.NewRegistry()
	rt := newObservedRuntime(t, reg, "")
	defer rt.Close()
	srv, l := startServer(t, rt, Config{Metrics: reg})
	adm := NewAdmin(AdminConfig{Registry: reg, Runtime: rt, Server: srv})
	web := httptest.NewServer(adm)
	defer web.Close()

	driveTenant(t, l, "alice")

	if code, body := adminGet(t, web, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("healthz = %d %q", code, body)
	}
	if code, _ := adminGet(t, web, "/readyz"); code != 200 {
		t.Errorf("readyz = %d, want 200", code)
	}

	_, scrape := adminGet(t, web, "/metrics")
	for _, want := range []string{
		"# TYPE ppm_runtime_events_in_total counter",
		`ppm_runtime_events_in_total{shard="0"}`,
		`ppm_budget_decisions_total{decision="admitted"}`,
		`ppm_tenant_events_in_total{tenant="alice"} 8`,
		"# TYPE ppm_serve_window_seconds histogram",
		"ppm_serve_window_seconds_bucket",
		"ppm_e2e_ingest_publish_seconds_count",
		"ppm_e2e_ingest_deliver_seconds_count",
		"ppm_wire_decode_seconds_count",
		"ppm_wire_encode_seconds_count",
		"ppm_server_conns_open 1",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	code, body := adminGet(t, web, "/statsz")
	if code != 200 {
		t.Fatalf("statsz = %d", code)
	}
	var z Statsz
	if err := json.Unmarshal([]byte(body), &z); err != nil {
		t.Fatalf("statsz decode: %v\n%s", err, body)
	}
	if z.Server == nil || len(z.Server.Tenants) != 1 || z.Server.Tenants[0].Tenant != "alice" {
		t.Fatalf("statsz tenants = %+v", z.Server)
	}
	if got := z.Server.Tenants[0].EventsIn; got != 8 {
		t.Errorf("statsz tenant events_in = %d, want 8", got)
	}
	if z.Runtime == nil || z.Runtime.Totals().EventsIn != 8 {
		t.Errorf("statsz runtime half missing or wrong: %+v", z.Runtime)
	}
	if len(z.Latencies) == 0 {
		t.Error("statsz has no latency summaries")
	}

	if code, _ := adminGet(t, web, "/debug/pprof/cmdline"); code != 200 {
		t.Errorf("pprof cmdline = %d", code)
	}

	// Drain-aware readiness: the serving probe goes red, liveness stays
	// green.
	srv.Drain()
	if code, body := adminGet(t, web, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Errorf("readyz during drain = %d %q, want 503 draining", code, body)
	}
	if code, _ := adminGet(t, web, "/healthz"); code != 200 {
		t.Errorf("healthz during drain = %d, want 200", code)
	}

	// Manual override wins in both directions.
	adm.SetReady(false)
	if code, _ := adminGet(t, web, "/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz after SetReady(false) = %d", code)
	}
	adm.SetReady(true)
}

// TestMetricNameLint builds the fully-instrumented stack — runtime with
// budget and durable state, network server with a live tenant — and lints
// every registered series: ppm_ prefix, lower_snake naming, kind-appropriate
// unit suffixes, and no duplicate series identity. Registration itself
// panics on violations (metrics.Registry), so this is the CI-facing sweep
// over everything the real pipeline registers.
func TestMetricNameLint(t *testing.T) {
	reg := metrics.NewRegistry()
	rt := newObservedRuntime(t, reg, t.TempDir())
	defer rt.Close()
	_, l := startServer(t, rt, Config{Metrics: reg})
	driveTenant(t, l, "alice")

	nameRE := regexp.MustCompile(`^ppm_[a-z0-9]+(_[a-z0-9]+)*$`)
	seen := make(map[string]bool)
	families := make(map[string]bool)
	for _, s := range reg.Gather() {
		families[s.Name] = true
		if !nameRE.MatchString(s.Name) {
			t.Errorf("metric %q violates the ppm_ lower_snake naming rule", s.Name)
		}
		switch s.Kind {
		case metrics.KindCounter:
			if !strings.HasSuffix(s.Name, "_total") {
				t.Errorf("counter %q must end in _total", s.Name)
			}
		case metrics.KindHistogram:
			if !strings.HasSuffix(s.Name, "_seconds") {
				t.Errorf("histogram %q must end in its unit suffix _seconds", s.Name)
			}
		case metrics.KindGauge:
			if strings.HasSuffix(s.Name, "_total") {
				t.Errorf("gauge %q must not end in _total", s.Name)
			}
		}
		id := seriesIdent(s)
		if seen[id] {
			t.Errorf("duplicate series %s", id)
		}
		seen[id] = true
	}
	// The full stack registers the runtime (per-shard), budget, durability,
	// server, and tenant families; far fewer series than this means a layer
	// lost its instrumentation.
	if len(seen) < 40 {
		t.Errorf("only %d series registered by the full stack", len(seen))
	}
	// The family set is pinned: adding, renaming or removing a family
	// changes what scrapers and alerts see, so it must edit this list.
	for _, name := range pinnedFamilies {
		if !families[name] {
			t.Errorf("family %s no longer registered", name)
		}
		delete(families, name)
	}
	for name := range families {
		t.Errorf("family %s registered but not pinned", name)
	}
}

// pinnedFamilies is every metric family the fully-instrumented stack of
// TestMetricNameLint registers.
var pinnedFamilies = []string{
	"ppm_budget_decisions_total", "ppm_budget_epoch", "ppm_budget_exhausted_streams",
	"ppm_budget_grant_epsilon", "ppm_budget_rotations_total", "ppm_budget_spent_epsilon",
	"ppm_budget_streams",
	"ppm_checkpoint_write_seconds", "ppm_checkpoints_written_total",
	"ppm_control_rebuild_seconds",
	"ppm_e2e_ingest_deliver_seconds", "ppm_e2e_ingest_publish_seconds",
	"ppm_ingest_admit_seconds",
	"ppm_runtime_answers_emitted_total", "ppm_runtime_dropped_events_total", "ppm_runtime_epoch",
	"ppm_runtime_events_in_total", "ppm_runtime_panes_closed_total", "ppm_runtime_shards",
	"ppm_runtime_streams_evicted_total", "ppm_runtime_streams_opened_total",
	"ppm_runtime_subscriptions_open", "ppm_runtime_window_overlap", "ppm_runtime_windows_closed_total",
	"ppm_serve_window_seconds",
	"ppm_server_auth_failures_total", "ppm_server_conns_open", "ppm_server_conns_total",
	"ppm_server_replay_slots", "ppm_server_sessions_evicted_total", "ppm_server_sessions_expired_total",
	"ppm_server_sessions_imported_total", "ppm_server_sessions_parked",
	"ppm_tenant_answers_dropped_total", "ppm_tenant_answers_replayed_total", "ppm_tenant_answers_sent_total",
	"ppm_tenant_events_in_total", "ppm_tenant_gaps_sent_total", "ppm_tenant_resumes_total",
	"ppm_tenant_sessions_evicted_total", "ppm_tenant_sessions_open", "ppm_tenant_streams",
	"ppm_tenant_throttled_total", "ppm_tenant_write_timeouts_total",
	"ppm_trace_batches_total", "ppm_trace_publish_stage_seconds", "ppm_trace_serve_stage_seconds",
	"ppm_trace_shard_hop_seconds",
	"ppm_wal_commit_seconds", "ppm_wal_fsync_seconds", "ppm_wal_records_committed_total",
	"ppm_wire_decode_seconds", "ppm_wire_encode_seconds", "ppm_wire_flushes_total",
}
