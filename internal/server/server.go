// Package server is the network serving layer: it exposes a runtime.Runtime
// to remote tenants over the wire protocol (package wire), multiplexing many
// tenant connections onto one shared serving runtime.
//
// Isolation is by namespacing, not by partitioning: every stream key is
// prefixed "tenant/" before it reaches the runtime, so two tenants ingesting
// a stream "s1" land on the distinct keys "a/s1" and "b/s1" — distinct
// windowers, distinct budget sub-ledgers, distinct answer feeds. Answer
// delivery applies the inverse: a session only forwards answers whose stream
// key carries its tenant's prefix, and strips the prefix before the wire, so
// no tenant ever observes another tenant's stream keys or answers. Per-tenant
// ε spend falls out of the same prefixes via Runtime.SpendByNamespace.
//
// Queries are not namespaced. Every query and private pattern type is the
// server's, set on the runtime's control plane in process; a query name means
// the same query to every tenant, and no tenant can change the control plane
// over the wire.
//
// Backpressure is per subscription. Each subscription owns a bounded replay
// ring of sequence-numbered answers, swept onto the wire by the session's
// single writer goroutine — every frame ready at a sweep leaves in one socket
// write, flushed when the rings run dry or the pending bytes pass
// wire.BufferSize, never on a timer. The ring is the runtime.Sink the
// serving shards deliver into, one batch per shard message, and taking a
// batch never blocks — an answer that overflows the ring evicts the oldest
// entry, and the eviction surfaces to the subscriber as an explicit Gap
// marker answer. A slow or stalled subscriber therefore costs itself answers
// but never stalls the runtime's publish path or any other tenant's delivery.
// Control replies are never dropped. An ingest's Ack is written by the same
// writer, once its batch is served and behind every answer the batch
// produced for the session's subscriptions; every other reply (a Subscribed,
// an unsubscribe's Ack, an Error, a Pong) is written from the session's
// request loop. Either wait blocks — and thereby backpressures — only the
// connection that issued the request.
//
// Resilience: sessions carry liveness deadlines (a peer silent for two
// heartbeat intervals is reaped; every write is bounded by a write
// deadline) and survive disconnects — the session's durable half (replay
// rings, subscriptions) lingers for a resume window, and a reconnecting
// client re-attaches with a Resume handshake that replays the missed tail
// exactly once or degrades with a Gap marker.
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"patterndp/internal/account"
	"patterndp/internal/metrics"
	"patterndp/internal/runtime"
)

// Tenant is an authenticated principal.
type Tenant struct {
	// ID is the namespace prefix for the tenant's stream keys. It must be
	// non-empty and must not contain '/' (the namespace delimiter).
	ID string
	// MaxStreams caps how many distinct stream keys the tenant may ingest
	// across all its connections; 0 is unlimited. The cap bounds the
	// tenant's total budget surface (each stream carries its own grant).
	MaxStreams int
}

// AuthFunc maps a Hello token to a Tenant. Returning an error rejects the
// connection with CodeAuth; the error text is sent to the client.
type AuthFunc func(token string) (Tenant, error)

// TokenAuth is the trivial AuthFunc: the token is the tenant id, any
// non-empty delimiter-free token is accepted, and maxStreams applies to
// every tenant uniformly.
func TokenAuth(maxStreams int) AuthFunc {
	return func(token string) (Tenant, error) {
		if token == "" || strings.ContainsRune(token, '/') {
			return Tenant{}, fmt.Errorf("invalid tenant token %q", token)
		}
		return Tenant{ID: token, MaxStreams: maxStreams}, nil
	}
}

// Config configures a Server.
type Config struct {
	// Runtime is the shared serving runtime. Required. The server does not
	// own it: the caller closes it (after Drain) during shutdown.
	Runtime *runtime.Runtime
	// Auth authenticates Hello tokens. Required.
	Auth AuthFunc
	// ReplayBuffer caps each subscription's answer ring: the outbound queue
	// and the replay window in one. Answers beyond it evict the oldest
	// entries (counted, and surfaced to the subscriber as a Gap marker)
	// rather than stalling delivery to other sessions. It is a cap, not a
	// reservation: ring storage is allocated in 256-answer chunks as answers
	// arrive, about 128 B per retained answer (Stats.ReplaySlots). 0 = 256;
	// negative is an error.
	ReplayBuffer int
	// Heartbeat is the ping cadence announced to clients; a session whose
	// peer stays silent for two intervals is presumed dead and its
	// connection reaped. It also bounds every socket write — one control
	// frame, or one flush of coalesced answer frames (at most
	// wire.BufferSize plus one frame) — so a wedged peer cannot hold the
	// write path (and with it heartbeats and answers) for the whole session.
	// 0 = 10s; negative disables both deadlines.
	Heartbeat time.Duration
	// ResumeWindow is how long a disconnected session's replay state lingers
	// for a Resume before it is reaped. 0 = 30s; negative disables resume.
	ResumeWindow time.Duration
	// MaxParkedSessions caps how many disconnected sessions may hold replay
	// state at once, server-wide. Parking one more evicts the
	// longest-parked core (counted in SessionsEvicted); its client falls
	// back to a fresh handshake. 0 = unlimited.
	MaxParkedSessions int
	// RateLimit caps each tenant's ingest rate in events per second (token
	// bucket with one second of burst). Refused batches get CodeThrottled
	// with a retry-after hint; nothing is partially admitted. 0 =
	// unlimited.
	RateLimit float64
	// Metrics, when set, receives the server's observability series:
	// connection, session-lifecycle and per-tenant (tenant=<id>) counters,
	// read from one snapshot per scrape, and the wire encode/decode and
	// end-to-end delivery latency histograms. A registry must back at most
	// one Server (Gather panics on duplicate series). Typically the same
	// registry as runtime.Config.Metrics, so one /metrics scrape covers the
	// whole pipeline.
	Metrics *metrics.Registry
}

// Server accepts tenant connections and serves them from one runtime.
type Server struct {
	cfg Config

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	sessions  map[*session]struct{}
	tenants   map[string]*tenantState
	cores     map[string]*sessionCore // session token → durable state
	draining  bool
	handoff   bool // draining for a handoff: park cores instead of retiring
	closed    bool

	wg sync.WaitGroup

	connsOpen     metrics.Gauge
	connsTotal    metrics.Counter
	authFailures  metrics.Counter
	coresExpired  metrics.Counter
	coresEvicted  metrics.Counter
	coresImported metrics.Counter
	flushes       metrics.Counter // successful session-writer flushes, acks included

	// Wire-path histograms, nil without Config.Metrics (sessions gate on
	// that, so an unobserved server reads no clocks on the frame paths).
	decodeH  *metrics.Histogram
	encodeH  *metrics.Histogram
	deliverH *metrics.Histogram
}

// heartbeat is the resolved liveness interval (0 = disabled).
func (s *Server) heartbeat() time.Duration { return max(s.cfg.Heartbeat, 0) }

// resumeWindow is the resolved post-disconnect grace period (0 = disabled).
func (s *Server) resumeWindow() time.Duration { return max(s.cfg.ResumeWindow, 0) }

// replayBuffer is each subscription's ring capacity.
func (s *Server) replayBuffer() int { return s.cfg.ReplayBuffer }

// stopping reports whether Drain or Close has begun.
func (s *Server) stopping() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining || s.closed
}

// handingOff reports whether the drain in progress is a handoff drain, in
// which case detaching sessions park (to be spilled) instead of retiring.
func (s *Server) handingOff() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.handoff && !s.closed
}

// tenantState is the server-wide per-tenant aggregate, shared by all of the
// tenant's sessions.
type tenantState struct {
	tenant Tenant

	mu      sync.Mutex
	streams map[string]struct{} // distinct namespaced stream keys ingested

	// Ingest token bucket (Config.RateLimit): rlTokens may go one batch
	// into debt, so an oversized batch is admitted once and then throttled
	// until the debt drains. Guarded by mu.
	rlTokens float64
	rlLast   time.Time

	sessions        metrics.Gauge
	eventsIn        metrics.Counter
	answersSent     metrics.Counter
	answersDropped  metrics.Counter
	answersReplayed metrics.Counter
	resumes         metrics.Counter
	gapsSent        metrics.Counter
	writeTimeouts   metrics.Counter
	throttled       metrics.Counter
	sessionsEvicted metrics.Counter
}

// admitRate charges n events against the tenant's token bucket at rate
// events/s. When the bucket is in debt the batch is refused and retryAfter
// says how long until it is positive again.
func (ts *tenantState) admitRate(n int, rate float64, now time.Time) (retryAfter time.Duration, ok bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	burst := rate // one second of burst
	if ts.rlLast.IsZero() {
		ts.rlTokens = burst
	} else if dt := now.Sub(ts.rlLast).Seconds(); dt > 0 {
		ts.rlTokens = math.Min(burst, ts.rlTokens+dt*rate)
	}
	ts.rlLast = now
	if ts.rlTokens <= 0 {
		wait := time.Duration((1 - ts.rlTokens) / rate * float64(time.Second))
		return max(wait, time.Millisecond), false
	}
	ts.rlTokens -= float64(n)
	return 0, true
}

// admitStreams checks the tenant's stream cap against a batch's distinct
// stream keys (already namespaced) and records them if admitted.
func (ts *tenantState) admitStreams(keys map[string]struct{}) error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if max := ts.tenant.MaxStreams; max > 0 {
		fresh := 0
		for k := range keys {
			if _, ok := ts.streams[k]; !ok {
				fresh++
			}
		}
		if len(ts.streams)+fresh > max {
			return fmt.Errorf("stream cap %d reached", max)
		}
	}
	for k := range keys {
		ts.streams[k] = struct{}{}
	}
	return nil
}

// New builds a Server. The runtime must already be serving.
func New(cfg Config) (*Server, error) {
	if cfg.Runtime == nil {
		return nil, errors.New("server: Config.Runtime is required")
	}
	if cfg.Auth == nil {
		return nil, errors.New("server: Config.Auth is required")
	}
	if cfg.ReplayBuffer < 0 {
		return nil, fmt.Errorf("server: Config.ReplayBuffer %d must be >= 0", cfg.ReplayBuffer)
	}
	if cfg.ReplayBuffer == 0 {
		cfg.ReplayBuffer = 256
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = 10 * time.Second
	}
	if cfg.ResumeWindow == 0 {
		cfg.ResumeWindow = 30 * time.Second
	}
	s := &Server{
		cfg:       cfg,
		listeners: make(map[net.Listener]struct{}),
		sessions:  make(map[*session]struct{}),
		tenants:   make(map[string]*tenantState),
		cores:     make(map[string]*sessionCore),
	}
	if cfg.Metrics != nil {
		s.registerMetrics(cfg.Metrics)
	}
	return s, nil
}

// ErrServerClosed is returned by Serve after Drain or Close stopped the
// accept loop.
var ErrServerClosed = errors.New("server: closed")

// Serve accepts connections from l until Drain or Close. It always closes l
// before returning. Serve may be called concurrently on several listeners
// (a TCP listener and an in-memory one, say).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		l.Close()
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			stopped := s.draining || s.closed
			s.mu.Unlock()
			if stopped {
				return ErrServerClosed
			}
			return err
		}
		ss := newSession(s, conn)
		s.mu.Lock()
		if s.draining || s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.sessions[ss] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.connsOpen.Inc()
		s.connsTotal.Inc()
		go func() {
			defer s.wg.Done()
			defer s.connsOpen.Dec()
			ss.run()
			s.mu.Lock()
			delete(s.sessions, ss)
			s.mu.Unlock()
		}()
	}
}

// tenantFor returns (creating on first use) the server-wide state for a
// tenant.
func (s *Server) tenantFor(t Tenant) *tenantState {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := s.tenants[t.ID]
	if ts == nil {
		ts = &tenantState{tenant: t, streams: make(map[string]struct{})}
		s.tenants[t.ID] = ts
	}
	return ts
}

// Drain begins a graceful shutdown: every listener stops accepting, new
// ingest requests are rejected with CodeDraining, and every
// live session is sent a Goodbye so clients finish draining their answer
// subscriptions and disconnect. Drain is idempotent and returns immediately;
// follow it with Runtime.CloseContext (flushing in-flight windows through
// the WAL and cutting the final checkpoint, after which nothing delivers into
// the sessions' rings) and then Wait.
func (s *Server) Drain() {
	if !s.beginDrain(false, "drain") {
		return
	}
	// Parked cores have no client to resume them through a shutdown.
	for _, c := range s.coreList() {
		c.retireIf(true)
	}
}

// DrainForHandoff begins a handoff drain: like Drain, but session state is
// being shipped to a takeover peer, so parked cores are kept (for
// Spill) rather than retired, detaching sessions park rather than
// retire, and live connections are closed once told goodbye — their clients
// are expected to reconnect-and-resume against the peer. Idempotent against
// itself; a plain Drain that got there first wins.
func (s *Server) DrainForHandoff() {
	if !s.beginDrain(true, "handoff") {
		return
	}
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for ss := range s.sessions {
		sessions = append(sessions, ss)
	}
	s.mu.Unlock()
	for _, ss := range sessions {
		ss.close()
	}
}

// beginDrain is the shared head of Drain and DrainForHandoff: stop accepting,
// reject mutating requests, and say goodbye to every live session. It reports
// false when a drain had already begun.
func (s *Server) beginDrain(handoff bool, reason string) bool {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return false
	}
	s.draining = true
	s.handoff = handoff
	ls := make([]net.Listener, 0, len(s.listeners))
	for l := range s.listeners {
		ls = append(ls, l)
	}
	sessions := make([]*session, 0, len(s.sessions))
	for ss := range s.sessions {
		sessions = append(sessions, ss)
	}
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, ss := range sessions {
		ss.goodbye(reason)
	}
	return true
}

// enforceParkCap evicts the longest-parked cores while the server exceeds
// MaxParkedSessions. Eviction retires the core — its client falls back to a
// fresh handshake with an explicit unknown-extent gap, never silent loss.
func (s *Server) enforceParkCap() {
	limit := s.cfg.MaxParkedSessions
	if limit <= 0 {
		return
	}
	for {
		var parked int
		var oldest *sessionCore
		var oldestAt time.Time
		for _, c := range s.coreList() {
			c.mu.Lock()
			isParked := c.attached.Load() == nil && !c.retired && c.reap != nil
			at := c.parkedAt
			c.mu.Unlock()
			if !isParked {
				continue
			}
			parked++
			if oldest == nil || at.Before(oldestAt) {
				oldest, oldestAt = c, at
			}
		}
		if parked <= limit {
			return
		}
		// A victim that re-attached between the scan and the retire is
		// simply not counted; the rescan sees it as live.
		if oldest.retireIf(true) {
			s.coresEvicted.Inc()
			oldest.tenant.sessionsEvicted.Inc()
		}
	}
}

// coreList snapshots the live cores.
func (s *Server) coreList() []*sessionCore {
	s.mu.Lock()
	defer s.mu.Unlock()
	cores := make([]*sessionCore, 0, len(s.cores))
	for _, c := range s.cores {
		cores = append(cores, c)
	}
	return cores
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Wait blocks until every session has closed, or until ctx expires — in
// which case remaining connections are force-closed before returning the
// context's error.
func (s *Server) Wait(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.Close()
		<-done
		return ctx.Err()
	}
}

// Close force-closes every listener and live connection. Prefer
// Drain/Wait; Close is the hard stop.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.draining = true
	ls := make([]net.Listener, 0, len(s.listeners))
	for l := range s.listeners {
		ls = append(ls, l)
	}
	sessions := make([]*session, 0, len(s.sessions))
	for ss := range s.sessions {
		sessions = append(sessions, ss)
	}
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, ss := range sessions {
		ss.close()
	}
	for _, c := range s.coreList() {
		c.retireIf(false)
	}
}

// TenantStats is one tenant's serving aggregate.
type TenantStats struct {
	// Tenant is the tenant id.
	Tenant string
	// Sessions is the tenant's live connection count.
	Sessions int64
	// Streams counts the distinct stream keys the tenant has ingested.
	Streams int
	// EventsIn counts events accepted from the tenant's Ingest requests.
	EventsIn int64
	// AnswersSent counts answer frames delivered to the tenant.
	AnswersSent int64
	// AnswersDropped counts answers evicted from replay rings by overflow
	// before delivery (each run of evictions surfaces as one Gap marker).
	AnswersDropped int64
	// AnswersReplayed counts answers queued for re-delivery by Resume
	// handshakes.
	AnswersReplayed int64
	// Resumes counts successful Resume handshakes (reconnects that
	// re-attached to live session state).
	Resumes int64
	// GapsSent counts explicit Gap marker answers delivered.
	GapsSent int64
	// WriteTimeouts counts writes abandoned at the write deadline (each
	// closes its session: a frame may be torn on the wire).
	WriteTimeouts int64
	// Throttled counts ingest batches refused by the tenant's events/s
	// rate limit (CodeThrottled).
	Throttled int64
	// SessionsEvicted counts this tenant's parked sessions evicted by the
	// parked-session caps before their resume window ended.
	SessionsEvicted int64
	// Spend is the tenant's live budget position (zero value when the
	// runtime serves without accounting or the tenant has no live streams).
	Spend account.NamespaceSpend
}

// Stats is a point-in-time snapshot of the serving layer.
type Stats struct {
	// ConnsOpen and ConnsTotal count live and lifetime-accepted
	// connections.
	ConnsOpen, ConnsTotal int64
	// AuthFailures counts rejected Hello frames.
	AuthFailures int64
	// SessionsParked counts disconnected sessions currently holding replay
	// state, awaiting a Resume inside the grace window.
	SessionsParked int64
	// ReplaySlots counts the answer slots allocated across every live and
	// parked subscription's replay ring (about 128 B each): what
	// subscriptions hold, as opposed to the ReplayBuffer cap they may grow to.
	ReplaySlots int64
	// SessionsExpired counts parked sessions reaped at the end of the
	// resume window without a Resume.
	SessionsExpired int64
	// SessionsEvicted counts parked sessions evicted by the
	// MaxParkedSessions cap.
	SessionsEvicted int64
	// SessionsImported counts sessions adopted from a session spill
	// (Adopt), available for Resume against this process.
	SessionsImported int64
	// Flushes counts the session writers' socket writes. Each carries every
	// answer and gap frame that was ready when it was issued, followed by
	// the ingest Acks it owes; a write carrying only Acks counts too. So
	// answers sent ÷ Flushes is the delivery path's coalescing factor, and
	// on a closed-loop producer Flushes ÷ ingests is the writes per round
	// trip.
	Flushes int64
	// Tenants holds one entry per tenant seen, sorted by id.
	Tenants []TenantStats
}

// Stats snapshots the serving layer, joining its counters with the runtime
// ledger's per-namespace spend.
func (s *Server) Stats() Stats {
	spend := make(map[string]account.NamespaceSpend)
	for _, ns := range s.cfg.Runtime.SpendByNamespace(namespaceDelim) {
		spend[ns.Namespace] = ns
	}
	return s.counters(spend)
}

// counters snapshots the serving layer's own state, taking each tenant's
// Spend from spend. With a nil spend it leaves Spend zero and walks no
// ledger: what a metrics scrape reads.
func (s *Server) counters(spend map[string]account.NamespaceSpend) Stats {
	st := Stats{
		ConnsOpen:        s.connsOpen.Load(),
		ConnsTotal:       s.connsTotal.Load(),
		AuthFailures:     s.authFailures.Load(),
		SessionsExpired:  s.coresExpired.Load(),
		SessionsEvicted:  s.coresEvicted.Load(),
		SessionsImported: s.coresImported.Load(),
		Flushes:          s.flushes.Load(),
	}
	// The delivery path keeps no count of parked sessions or of the
	// replay-ring slots subscriptions hold: walk the session cores.
	for _, c := range s.coreList() {
		c.mu.Lock()
		if c.attached.Load() == nil && !c.retired {
			st.SessionsParked++
		}
		for _, sub := range c.subs {
			sub.mu.Lock()
			st.ReplaySlots += sub.slots()
			sub.mu.Unlock()
		}
		c.mu.Unlock()
	}
	s.mu.Lock()
	for id, ts := range s.tenants {
		ts.mu.Lock()
		streams := len(ts.streams)
		ts.mu.Unlock()
		st.Tenants = append(st.Tenants, TenantStats{
			Tenant:          id,
			Sessions:        ts.sessions.Load(),
			Streams:         streams,
			EventsIn:        ts.eventsIn.Load(),
			AnswersSent:     ts.answersSent.Load(),
			AnswersDropped:  ts.answersDropped.Load(),
			AnswersReplayed: ts.answersReplayed.Load(),
			Resumes:         ts.resumes.Load(),
			GapsSent:        ts.gapsSent.Load(),
			WriteTimeouts:   ts.writeTimeouts.Load(),
			Throttled:       ts.throttled.Load(),
			SessionsEvicted: ts.sessionsEvicted.Load(),
			Spend:           spend[id],
		})
	}
	s.mu.Unlock()
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Tenant < st.Tenants[j].Tenant })
	return st
}

// namespaceDelim separates the tenant prefix from the tenant-relative source
// in a stream key.
const namespaceDelim = '/'

// reqCounter hands out client-visible request ids on the client side.
type reqCounter struct{ v atomic.Uint64 }

func (c *reqCounter) next() uint64 { return c.v.Add(1) }
