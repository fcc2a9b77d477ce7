package server

import (
	"patterndp/internal/metrics"
)

// counterFn bridges an existing atomic counter into a func-backed registry
// series, so scrapes read the same value Stats does with no double
// bookkeeping on the serving paths.
func counterFn(c *metrics.Counter) func() float64 {
	return func() float64 { return float64(c.Load()) }
}

// registerMetrics exposes the server's connection and session-lifecycle
// counters as func-backed registry series and creates the wire-path
// histograms. Called once from New.
func (s *Server) registerMetrics(reg *metrics.Registry) {
	s.decodeH = reg.Histogram("ppm_wire_decode_seconds",
		"Ingest frame payload decode latency (wire bytes to event batch).")
	s.encodeH = reg.Histogram("ppm_wire_encode_seconds",
		"Answer encode latency per flush (first replay-ring pop to the coalesced frames' socket write).")
	s.deliverH = reg.Histogram("ppm_e2e_ingest_deliver_seconds",
		"Traced batches: end-to-end latency from ingest admission to the answer's session delivery write.")
	reg.GaugeFunc("ppm_server_conns_open", "Live tenant connections.",
		func() float64 { return float64(s.connsOpen.Load()) })
	reg.CounterFunc("ppm_server_conns_total", "Lifetime accepted connections.", counterFn(&s.connsTotal))
	reg.CounterFunc("ppm_server_auth_failures_total", "Rejected Hello frames.", counterFn(&s.authFailures))
	reg.GaugeFunc("ppm_server_sessions_parked",
		"Disconnected sessions holding replay state, awaiting a Resume inside the grace window.",
		func() float64 {
			parked, _ := s.census()
			return float64(parked)
		})
	reg.GaugeFunc("ppm_server_replay_slots",
		"Answer slots allocated across live and parked subscriptions' replay rings (about 128 B each).",
		func() float64 {
			_, slots := s.census()
			return float64(slots)
		})
	reg.CounterFunc("ppm_server_sessions_expired_total",
		"Parked sessions reaped unresumed at the end of the resume window.", counterFn(&s.coresExpired))
	reg.CounterFunc("ppm_server_sessions_evicted_total",
		"Parked sessions evicted by the MaxParkedSessions cap.", counterFn(&s.coresEvicted))
	reg.CounterFunc("ppm_server_sessions_imported_total",
		"Sessions adopted from a handoff spill, available for Resume.", counterFn(&s.coresImported))
	reg.CounterFunc("ppm_wire_flushes_total",
		"Answer-writer socket writes, each carrying every answer and gap frame ready at the time.", counterFn(&s.flushes))
}

// registerTenantMetrics exposes one tenant's serving counters under a
// tenant=<id> label. Called from tenantFor exactly once per tenant id, under
// the server lock (the registry has its own lock; the func bodies run at
// scrape time, outside both).
func registerTenantMetrics(reg *metrics.Registry, ts *tenantState) {
	l := metrics.L("tenant", ts.tenant.ID)
	reg.GaugeFunc("ppm_tenant_sessions_open", "The tenant's live connections.",
		func() float64 { return float64(ts.sessions.Load()) }, l)
	reg.GaugeFunc("ppm_tenant_streams", "Distinct stream keys the tenant has ingested.",
		func() float64 {
			ts.mu.Lock()
			n := len(ts.streams)
			ts.mu.Unlock()
			return float64(n)
		}, l)
	reg.CounterFunc("ppm_tenant_events_in_total",
		"Events accepted from the tenant's Ingest requests.", counterFn(&ts.eventsIn), l)
	reg.CounterFunc("ppm_tenant_answers_sent_total",
		"Answer frames delivered to the tenant.", counterFn(&ts.answersSent), l)
	reg.CounterFunc("ppm_tenant_answers_dropped_total",
		"Answers evicted from replay rings by overflow before delivery.", counterFn(&ts.answersDropped), l)
	reg.CounterFunc("ppm_tenant_answers_replayed_total",
		"Answers queued for re-delivery by Resume handshakes.", counterFn(&ts.answersReplayed), l)
	reg.CounterFunc("ppm_tenant_resumes_total",
		"Successful Resume handshakes.", counterFn(&ts.resumes), l)
	reg.CounterFunc("ppm_tenant_gaps_sent_total",
		"Explicit Gap marker answers delivered.", counterFn(&ts.gapsSent), l)
	reg.CounterFunc("ppm_tenant_write_timeouts_total",
		"Socket writes abandoned at the write deadline.", counterFn(&ts.writeTimeouts), l)
	reg.CounterFunc("ppm_tenant_throttled_total",
		"Ingest batches refused by the tenant's events/s rate limit.", counterFn(&ts.throttled), l)
	reg.CounterFunc("ppm_tenant_sessions_evicted_total",
		"The tenant's parked sessions evicted by the parked-session caps.", counterFn(&ts.sessionsEvicted), l)
}
