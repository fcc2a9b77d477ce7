package server

// The admin endpoint: a small HTTP surface exposing the process's
// observability state — Prometheus metrics, liveness/readiness probes, a JSON
// stats document, and pprof — on a listener separate from the tenant wire
// protocol, so operators scrape and probe without touching the serving path.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"patterndp/internal/metrics"
	"patterndp/internal/runtime"
)

// AdminConfig configures an Admin handler. All fields are optional — a nil
// Registry serves an empty /metrics, a nil Runtime/Server just omits their
// halves of /statsz and their /readyz conditions — so the same handler serves
// the full network stack and the local replay mode alike.
type AdminConfig struct {
	// Registry is the metric registry /metrics renders and /statsz
	// summarizes.
	Registry *metrics.Registry
	// Runtime contributes serving stats to /statsz; a closed runtime flips
	// /readyz to 503.
	Runtime *runtime.Runtime
	// Server contributes per-tenant stats to /statsz; a draining server
	// (Drain or DrainForHandoff) flips /readyz to 503.
	Server *Server
}

// Admin is the admin HTTP handler. Serve it on its own listener:
//
//	adm := server.NewAdmin(server.AdminConfig{Registry: reg, Runtime: rt, Server: srv})
//	go http.Serve(l, adm)
//
// Routes: /metrics (Prometheus text), /healthz (process liveness), /readyz
// (serving readiness: 503 while draining, handing off, or after the runtime
// closed), /statsz (JSON stats document), /debug/pprof/* (runtime profiles).
type Admin struct {
	cfg   AdminConfig
	start time.Time
	mux   *http.ServeMux
	// notReady is the manual readiness override (SetReady), for phases the
	// Server's drain flag cannot see — e.g. a takeover process that is
	// listening for a handoff but not yet serving.
	notReady atomic.Bool
}

// NewAdmin builds the admin handler.
func NewAdmin(cfg AdminConfig) *Admin {
	a := &Admin{cfg: cfg, start: time.Now(), mux: http.NewServeMux()}
	a.mux.HandleFunc("/metrics", a.handleMetrics)
	a.mux.HandleFunc("/healthz", a.handleHealthz)
	a.mux.HandleFunc("/readyz", a.handleReadyz)
	a.mux.HandleFunc("/statsz", a.handleStatsz)
	a.mux.HandleFunc("/debug/pprof/", pprof.Index)
	a.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	a.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	a.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	a.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return a
}

// ServeHTTP implements http.Handler.
func (a *Admin) ServeHTTP(w http.ResponseWriter, r *http.Request) { a.mux.ServeHTTP(w, r) }

// SetReady overrides /readyz: SetReady(false) forces 503 regardless of the
// drain state, SetReady(true) restores the automatic conditions.
func (a *Admin) SetReady(ready bool) { a.notReady.Store(!ready) }

func (a *Admin) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	a.cfg.Registry.WritePrometheus(w)
}

func (a *Admin) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintln(w, "ok")
}

func (a *Admin) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if reason, ok := a.ready(); !ok {
		http.Error(w, reason, http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// ready reports serving readiness and, when not ready, why.
func (a *Admin) ready() (string, bool) {
	if a.notReady.Load() {
		return "not ready", false
	}
	if srv := a.cfg.Server; srv != nil && srv.Draining() {
		return "draining", false
	}
	if rt := a.cfg.Runtime; rt != nil {
		select {
		case <-rt.Done():
			return "runtime closed", false
		default:
		}
	}
	return "", true
}

func (a *Admin) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(a.Statsz())
}

// Statsz collects the handler's stats document.
func (a *Admin) Statsz() Statsz {
	return CollectStatsz(a.cfg.Registry, a.cfg.Runtime, a.cfg.Server, time.Since(a.start))
}

// LatencySummary condenses one registry histogram series for /statsz.
type LatencySummary struct {
	// Metric is the series identity: family name plus rendered labels.
	Metric string `json:"metric"`
	// Count is the number of observations.
	Count int64 `json:"count"`
	// MeanMs, P50Ms, P99Ms, and MaxMs summarize the distribution in
	// milliseconds (quantiles are bucket-interpolated, Max is the upper
	// bound of the highest populated bucket).
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Statsz is the /statsz JSON document: uptime and throughput, the runtime
// snapshot, the serving layer's per-tenant stats, and a latency summary of
// every populated histogram. ppmserve's shutdown report prints from the same
// CollectStatsz output, so the two views can never disagree.
type Statsz struct {
	// UptimeSeconds is the collector's uptime (admin-handler start, or the
	// caller-supplied elapsed time).
	UptimeSeconds float64 `json:"uptime_seconds"`
	// EventsPerSec is the runtime's aggregate ingest rate since start.
	EventsPerSec float64 `json:"events_per_sec"`
	// Runtime is the runtime snapshot (nil without a runtime).
	Runtime *runtime.Stats `json:"runtime,omitempty"`
	// Server is the serving-layer snapshot with per-tenant counters and ε
	// spend (nil without a network server).
	Server *Stats `json:"server,omitempty"`
	// AnswersPerFlush is the delivery path's coalescing factor: answers sent
	// ÷ answer-writer socket writes (Server.Flushes); 0 before the first.
	AnswersPerFlush float64 `json:"answers_per_flush"`
	// Latencies summarizes every histogram series with at least one
	// observation, sorted by metric identity.
	Latencies []LatencySummary `json:"latencies,omitempty"`
}

// CollectStatsz assembles the stats document from the three observability
// sources. Any of them may be nil. It is the single collection point behind
// both the /statsz endpoint and ppmserve's shutdown report.
func CollectStatsz(reg *metrics.Registry, rt *runtime.Runtime, srv *Server, uptime time.Duration) Statsz {
	z := Statsz{UptimeSeconds: uptime.Seconds()}
	if rt != nil {
		st := rt.Snapshot()
		z.Runtime = &st
		z.EventsPerSec = st.Throughput()
	}
	if srv != nil {
		st := srv.Stats()
		z.Server = &st
		if st.Flushes > 0 {
			var sent int64
			for _, ts := range st.Tenants {
				sent += ts.AnswersSent
			}
			z.AnswersPerFlush = float64(sent) / float64(st.Flushes)
		}
	}
	for _, s := range reg.Gather() {
		if s.Kind != metrics.KindHistogram || s.Hist == nil || s.Hist.Count == 0 {
			continue
		}
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		z.Latencies = append(z.Latencies, LatencySummary{
			Metric: seriesIdent(s),
			Count:  s.Hist.Count,
			MeanMs: ms(s.Hist.Mean()),
			P50Ms:  ms(s.Hist.Quantile(0.5)),
			P99Ms:  ms(s.Hist.Quantile(0.99)),
			MaxMs:  ms(s.Hist.Max()),
		})
	}
	sort.Slice(z.Latencies, func(i, j int) bool { return z.Latencies[i].Metric < z.Latencies[j].Metric })
	return z
}

// seriesIdent renders a series identity "name{k=v,...}" for /statsz.
func seriesIdent(s metrics.Series) string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('{')
	for i, l := range s.Labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}
