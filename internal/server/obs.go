package server

import (
	"patterndp/internal/metrics"
)

// registerMetrics creates the wire-path histograms and reports the server's
// connection, session-lifecycle and per-tenant counters through one registry
// collector over counters(nil), so a scrape walks the session cores once and
// the ledger not at all. Called once from New.
func (s *Server) registerMetrics(reg *metrics.Registry) {
	s.decodeH = reg.Histogram("ppm_wire_decode_seconds",
		"Ingest frame payload decode latency (wire bytes to event batch).")
	s.encodeH = reg.Histogram("ppm_wire_encode_seconds",
		"Answer encode latency per flush (first replay-ring pop to the coalesced frames' socket write).")
	s.deliverH = reg.Histogram("ppm_e2e_ingest_deliver_seconds",
		"Traced batches: end-to-end latency from ingest admission to the answer's session delivery write.")
	reg.Collect(func(emit metrics.Emit) {
		st := s.counters(nil)
		counter := func(name, help string, v int64, labels ...metrics.Label) {
			emit(name, help, metrics.KindCounter, float64(v), labels...)
		}
		gauge := func(name, help string, v int64, labels ...metrics.Label) {
			emit(name, help, metrics.KindGauge, float64(v), labels...)
		}
		gauge("ppm_server_conns_open", "Live tenant connections.", st.ConnsOpen)
		counter("ppm_server_conns_total", "Lifetime accepted connections.", st.ConnsTotal)
		counter("ppm_server_auth_failures_total", "Rejected Hello frames.", st.AuthFailures)
		gauge("ppm_server_sessions_parked",
			"Disconnected sessions holding replay state, awaiting a Resume inside the grace window.", st.SessionsParked)
		gauge("ppm_server_replay_slots",
			"Answer slots allocated across live and parked subscriptions' replay rings (about 128 B each).", st.ReplaySlots)
		counter("ppm_server_sessions_expired_total",
			"Parked sessions reaped unresumed at the end of the resume window.", st.SessionsExpired)
		counter("ppm_server_sessions_evicted_total",
			"Parked sessions evicted by the MaxParkedSessions cap.", st.SessionsEvicted)
		counter("ppm_server_sessions_imported_total",
			"Sessions adopted from a handoff spill, available for Resume.", st.SessionsImported)
		counter("ppm_wire_flushes_total",
			"Session-writer socket writes, each carrying every answer and gap frame ready at the time and the ingest Acks behind them; an ack-only write counts too.", st.Flushes)
		for _, ts := range st.Tenants {
			l := metrics.L("tenant", ts.Tenant)
			gauge("ppm_tenant_sessions_open", "The tenant's live connections.", ts.Sessions, l)
			gauge("ppm_tenant_streams", "Distinct stream keys the tenant has ingested.", int64(ts.Streams), l)
			counter("ppm_tenant_events_in_total",
				"Events accepted from the tenant's Ingest requests.", ts.EventsIn, l)
			counter("ppm_tenant_answers_sent_total",
				"Answer frames delivered to the tenant.", ts.AnswersSent, l)
			counter("ppm_tenant_answers_dropped_total",
				"Answers evicted from replay rings by overflow before delivery.", ts.AnswersDropped, l)
			counter("ppm_tenant_answers_replayed_total",
				"Answers queued for re-delivery by Resume handshakes.", ts.AnswersReplayed, l)
			counter("ppm_tenant_resumes_total",
				"Successful Resume handshakes.", ts.Resumes, l)
			counter("ppm_tenant_gaps_sent_total",
				"Explicit Gap marker answers delivered.", ts.GapsSent, l)
			counter("ppm_tenant_write_timeouts_total",
				"Socket writes abandoned at the write deadline.", ts.WriteTimeouts, l)
			counter("ppm_tenant_throttled_total",
				"Ingest batches refused by the tenant's events/s rate limit.", ts.Throttled, l)
			counter("ppm_tenant_sessions_evicted_total",
				"The tenant's parked sessions evicted by the parked-session caps.", ts.SessionsEvicted, l)
		}
	})
}
