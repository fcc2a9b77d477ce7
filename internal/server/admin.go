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
	"time"

	"patterndp/internal/metrics"
	"patterndp/internal/runtime"
)

// Admin is the admin HTTP handler. Serve it on its own listener:
//
//	go http.Serve(l, server.NewAdmin(srv))
//
// Routes: /metrics (Prometheus text of the server's Config.Metrics), /healthz
// (process liveness), /readyz (serving readiness: 503 while draining, handing
// off, or after the runtime closed), /statsz (JSON stats document),
// /debug/pprof/* (runtime profiles).
type Admin struct {
	srv   *Server
	start time.Time
	mux   *http.ServeMux
}

// NewAdmin builds the admin handler for srv, whose Config holds the runtime
// and the metric registry the handler reports on.
func NewAdmin(srv *Server) *Admin {
	a := &Admin{srv: srv, start: time.Now(), mux: http.NewServeMux()}
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

func (a *Admin) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	a.srv.cfg.Metrics.WritePrometheus(w)
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
	if a.srv.Draining() {
		return "draining", false
	}
	select {
	case <-a.srv.cfg.Runtime.Done():
		return "runtime closed", false
	default:
	}
	return "", true
}

func (a *Admin) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(CollectStatsz(a.srv, time.Since(a.start)))
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
	// Runtime is the runtime snapshot: every runtime and budget value
	// /metrics reports, QueriesDemanded and Subscriptions included.
	Runtime *runtime.Stats `json:"runtime,omitempty"`
	// Server is the serving-layer snapshot with per-tenant counters and ε
	// spend.
	Server *Stats `json:"server,omitempty"`
	// AnswersPerFlush is the delivery path's coalescing factor: answers sent
	// ÷ session-writer socket writes (Server.Flushes, ingest Acks' writes
	// included); 0 before the first.
	AnswersPerFlush float64 `json:"answers_per_flush"`
	// Latencies summarizes every histogram series with at least one
	// observation, sorted by metric identity.
	Latencies []LatencySummary `json:"latencies,omitempty"`
}

// CollectStatsz assembles the stats document from srv, its runtime and its
// metric registry. It is the single collection point behind both the /statsz
// endpoint and ppmserve's shutdown report.
func CollectStatsz(srv *Server, uptime time.Duration) Statsz {
	rtStats, srvStats := srv.cfg.Runtime.Snapshot(), srv.Stats()
	z := Statsz{
		UptimeSeconds: uptime.Seconds(),
		EventsPerSec:  rtStats.Throughput(),
		Runtime:       &rtStats,
		Server:        &srvStats,
	}
	if srvStats.Flushes > 0 {
		var sent int64
		for _, ts := range srvStats.Tenants {
			sent += ts.AnswersSent
		}
		z.AnswersPerFlush = float64(sent) / float64(srvStats.Flushes)
	}
	// Histograms are instruments, never collected: reading them runs no
	// collector, so the snapshots above are the request's only walk of the
	// ledger and the session cores.
	for _, s := range srv.cfg.Metrics.Instruments() {
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
