package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"patterndp/internal/event"
	"patterndp/internal/runtime"
	"patterndp/internal/wire"
)

// session is one tenant connection: a request loop reading frames through a
// read-ahead buffer under an idle deadline, and a single writer goroutine
// sweeping the session core's replay rings onto the wire, every ready frame
// coalesced into one write under one write deadline. A session owns those two
// goroutines and nothing else. The durable state — subscriptions and their
// replay rings — lives in the sessionCore, which survives this connection if
// the peer disconnects and resumes.
type session struct {
	srv  *Server
	conn net.Conn

	tenant *tenantState
	prefix string // "tenant/" once authenticated

	// wmu serializes writes; each Write call carries whole frames only (one
	// control frame, or one flush of answer frames), so frames never
	// interleave on the wire.
	wmu sync.Mutex

	// wake (cap 1) is the writer's doorbell: a shard that delivered into one
	// of the core's rings kicks it once per delivered batch, after the push,
	// so a kick is never lost and kicks that find one pending collapse.
	wake chan struct{}
	done chan struct{}
	once sync.Once

	mu   sync.Mutex
	core *sessionCore

	// began and orderly are touched only by the read loop.
	began   bool // a non-resume request was dispatched
	orderly bool // peer sent Goodbye: retire the core instead of parking it

	wg sync.WaitGroup // writer goroutine

	// Ingest scratch, touched only by the read loop and reused per request:
	// the decode buffer, the table the decoded event types and sources are
	// drawn from, the batch's distinct stream keys, and the intern table
	// from a raw event source to its namespaced stream key. A steady
	// stream's batch allocates nothing.
	scratch []event.Event
	names   wire.Interner
	keys    map[string]struct{}
	streams map[string]string

	// acks holds the accepted ingests whose Acks are still owed, in request
	// order; the writer sends each once its batch has been served, behind
	// the answers the batch produced. ackFree keeps sent records for reuse,
	// so a steady ingest stream allocates none.
	ackMu   sync.Mutex
	acks    []*pendingAck
	ackFree []*pendingAck
}

// pendingAck is one accepted ingest awaiting its Ack. Its receipt fires once
// the runtime has served the batch and published its answers into the
// session's rings; ready then tells the writer the Ack may follow them.
type pendingAck struct {
	rc     runtime.Receipt
	ss     *session
	req, n uint64
	ready  atomic.Bool
}

// served is the receipt's Done: it runs on the shard goroutine that
// published the batch's last part, after that publish.
func (pa *pendingAck) served() {
	pa.ready.Store(true)
	pa.ss.kick()
}

// maxInternedStreams bounds a session's stream-key intern table: a client
// cycling through fresh source names resets it instead of growing it.
const maxInternedStreams = 4096

func newSession(s *Server, conn net.Conn) *session {
	return &session{
		srv:     s,
		conn:    conn,
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		keys:    make(map[string]struct{}),
		streams: make(map[string]string),
	}
}

// close ends the connection exactly once: the writer is released and the
// conn is closed (unblocking the request loop). The core is NOT touched —
// release parks or retires it after the writer has drained.
func (ss *session) close() {
	ss.once.Do(func() {
		close(ss.done)
		ss.conn.Close()
	})
}

// kick wakes the writer (no-op if a wake is already pending).
func (ss *session) kick() {
	select {
	case ss.wake <- struct{}{}:
	default:
	}
}

// coreRef returns the session's current core.
func (ss *session) coreRef() *sessionCore {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.core
}

func (ss *session) setCore(c *sessionCore) {
	ss.mu.Lock()
	ss.core = c
	ss.mu.Unlock()
}

// release hands the core back when the connection ends: an orderly goodbye
// retires it, a disconnect parks it for the resume window.
func (ss *session) release() {
	ss.mu.Lock()
	c := ss.core
	ss.core = nil
	ss.mu.Unlock()
	if c != nil {
		c.detach(ss, ss.orderly)
	}
}

// run serves the connection until the peer disconnects, goes silent past the
// idle deadline, commits a protocol error, or the server closes the session.
// It returns only after the writer goroutine has exited.
func (ss *session) run() {
	defer func() {
		ss.close()
		ss.wg.Wait()
		ss.release()
		if ss.tenant != nil {
			ss.tenant.sessions.Dec()
		}
	}()
	r := wire.NewReader(ss.conn)
	ss.refreshReadDeadline()
	if !ss.handshake(r) {
		return
	}
	ss.wg.Add(1)
	go ss.writeLoop()
	for {
		// Only a Next that must read the transport can block on the peer, and
		// every one that does gets a fresh deadline: dispatching the frames
		// buffered behind the last read (an ingest held up by backpressure)
		// may have outlasted the old one.
		if !r.Ready() {
			ss.refreshReadDeadline()
		}
		f, err := r.Next()
		if err != nil {
			return
		}
		if !ss.dispatch(f) {
			return
		}
	}
}

// refreshReadDeadline arms the idle deadline: a peer silent for two
// heartbeat intervals is presumed dead and reaped.
func (ss *session) refreshReadDeadline() {
	if h := ss.srv.heartbeat(); h > 0 {
		ss.conn.SetReadDeadline(time.Now().Add(2 * h))
	}
}

// handshake performs Hello → Welcome, authenticating the tenant and minting
// the session core whose token a future Resume presents.
func (ss *session) handshake(r *wire.Reader) bool {
	f, err := r.Next()
	if err != nil {
		return false
	}
	if f.Type != wire.THello {
		ss.sendError(0, wire.CodeProto, fmt.Sprintf("expected hello, got %v", f.Type))
		return false
	}
	h, err := wire.DecodeHello(f.Payload)
	if err != nil {
		ss.sendError(0, wire.CodeProto, err.Error())
		return false
	}
	if h.Proto < 1 {
		ss.sendError(0, wire.CodeProto, fmt.Sprintf("bad protocol version %d", h.Proto))
		return false
	}
	t, err := ss.srv.cfg.Auth(h.Token)
	if err == nil && (t.ID == "" || strings.ContainsRune(t.ID, namespaceDelim)) {
		err = fmt.Errorf("auth returned invalid tenant id %q", t.ID)
	}
	if err != nil {
		ss.srv.authFailures.Inc()
		ss.sendError(0, wire.CodeAuth, err.Error())
		return false
	}
	ss.tenant = ss.srv.tenantFor(t)
	ss.tenant.sessions.Inc()
	ss.prefix = t.ID + string(namespaceDelim)
	ss.setCore(ss.srv.newCore(ss.tenant, ss.prefix, ss))
	rt := ss.srv.cfg.Runtime
	var queries []string
	for _, q := range rt.Queries() {
		queries = append(queries, q.Name)
	}
	w := wire.Welcome{
		Tenant:             t.ID,
		Shards:             uint64(len(rt.Snapshot().Shards)),
		Grant:              float64(rt.BudgetGrant()),
		Queries:            queries,
		Session:            ss.coreRef().token,
		HeartbeatMillis:    uint64(ss.srv.heartbeat() / time.Millisecond),
		ResumeWindowMillis: uint64(ss.srv.resumeWindow() / time.Millisecond),
	}
	return ss.writeFrame(wire.TWelcome, wire.AppendWelcome(nil, w)) == nil
}

// dispatch handles one request frame. It returns false when the session
// should end (goodbye or unrecoverable protocol error).
func (ss *session) dispatch(f wire.Frame) bool {
	switch f.Type {
	case wire.TPing:
		p, err := wire.DecodePing(f.Payload)
		if err != nil {
			ss.sendError(0, wire.CodeProto, err.Error())
			return false
		}
		return ss.writeFrame(wire.TPong, wire.AppendPong(nil, wire.Pong{Nonce: p.Nonce})) == nil
	case wire.TPong:
		return true // liveness is refreshed by the frame's arrival itself
	case wire.TResume:
		return ss.handleResume(f.Payload)
	case wire.TGoodbye:
		ss.orderly = true
		return false
	}
	ss.began = true
	switch f.Type {
	case wire.TIngest:
		return ss.handleIngest(f.Payload)
	case wire.TSubscribe:
		return ss.handleSubscribe(f.Payload)
	case wire.TUnsubscribe:
		return ss.handleUnsubscribe(f.Payload)
	default:
		ss.sendError(0, wire.CodeProto, fmt.Sprintf("unexpected frame %v", f.Type))
		return false
	}
}

// handleResume re-attaches the connection to a previous session's core. The
// fresh core minted at handshake is discarded in favor of the resumed one;
// when the token is unknown (expired, or another tenant's), the client keeps
// the fresh core and must re-subscribe from scratch. The Resumed reply is
// written before the writer is pointed at the resumed core, so the client
// never sees replayed answers ahead of it.
func (ss *session) handleResume(payload []byte) bool {
	req, err := wire.DecodeResume(payload)
	if err != nil {
		ss.sendError(0, wire.CodeProto, err.Error())
		return false
	}
	if ss.began {
		ss.sendError(req.Req, wire.CodeProto, "resume must precede other requests")
		return false
	}
	ss.began = true
	fresh := ss.coreRef()
	c := ss.srv.lookupCore(req.Session)
	if c == nil || c.tenant != ss.tenant || (c != fresh && !c.adopt(ss)) {
		return ss.writeFrame(wire.TResumed, wire.AppendResumed(nil,
			wire.Resumed{Req: req.Req, Session: fresh.token})) == nil
	}
	if c == fresh {
		// Resuming the token just issued: nothing to replay.
		return ss.writeFrame(wire.TResumed, wire.AppendResumed(nil,
			wire.Resumed{Req: req.Req, Session: fresh.token})) == nil
	}
	ids, replay := c.resume(req.Subs)
	ss.tenant.resumes.Inc()
	ss.tenant.answersReplayed.Add(int64(replay))
	ok := ss.writeFrame(wire.TResumed, wire.AppendResumed(nil,
		wire.Resumed{Req: req.Req, Session: c.token, Subs: ids})) == nil
	ss.setCore(c)
	fresh.retireIf(false)
	ss.kick()
	return ok
}

func (ss *session) handleIngest(payload []byte) bool {
	var decStart time.Time
	if ss.srv.decodeH != nil {
		decStart = time.Now()
	}
	in, err := ss.names.DecodeIngest(payload, ss.scratch[:0])
	if err != nil {
		ss.sendError(0, wire.CodeProto, err.Error())
		return false
	}
	if ss.srv.decodeH != nil {
		ss.srv.decodeH.ObserveSince(decStart)
	}
	ss.scratch = in.Events
	if ss.srv.Draining() {
		ss.sendError(in.Req, wire.CodeDraining, "server draining")
		return true
	}
	if rate := ss.srv.cfg.RateLimit; rate > 0 {
		if wait, ok := ss.tenant.admitRate(len(in.Events), rate, time.Now()); !ok {
			ss.tenant.throttled.Inc()
			ss.sendThrottled(in.Req, fmt.Sprintf("rate limit %g events/s exceeded", rate), wait)
			return true
		}
	}
	// Namespace every event's stream key under the tenant before the batch
	// reaches the shared runtime. Batches are runs of one source, so the key
	// is resolved and recorded for the quota only when the source changes.
	clear(ss.keys)
	var src, key string
	for i := range in.Events {
		e := &in.Events[i]
		if i == 0 || e.Source != src {
			src = e.Source
			key = ss.streamKey(src)
			ss.keys[key] = struct{}{}
		}
		e.Source = key
	}
	if err := ss.tenant.admitStreams(ss.keys); err != nil {
		ss.sendError(in.Req, wire.CodeQuota, err.Error())
		return true
	}
	pa := ss.takeAck(in.Req, uint64(len(in.Events)))
	if err := ss.srv.cfg.Runtime.IngestBatchReceipt(context.Background(), in.Events, &pa.rc); err != nil {
		// The record is not queued: no Ack follows this Error, and the
		// receipt, which may still fire, is left to the collector.
		code := wire.CodeInternal
		if ss.srv.Draining() {
			code = wire.CodeDraining
		}
		ss.sendError(in.Req, code, err.Error())
		return true
	}
	ss.tenant.eventsIn.Add(int64(len(in.Events)))
	ss.queueAck(pa)
	return true
}

// takeAck returns an unserved ack record for request req acking n events,
// reused when one is free.
func (ss *session) takeAck(req, n uint64) *pendingAck {
	ss.ackMu.Lock()
	var pa *pendingAck
	if k := len(ss.ackFree); k > 0 {
		pa = ss.ackFree[k-1]
		ss.ackFree = ss.ackFree[:k-1]
	}
	ss.ackMu.Unlock()
	if pa == nil {
		pa = &pendingAck{ss: ss}
		pa.rc.Done = pa.served
	}
	pa.req, pa.n = req, n
	pa.ready.Store(false)
	return pa
}

// queueAck puts an accepted ingest's Ack behind the ones already owed. Its
// batch may already have been served, its receipt's kick spent on a writer
// that could not see the record yet: then it kicks again.
func (ss *session) queueAck(pa *pendingAck) {
	ss.ackMu.Lock()
	ss.acks = append(ss.acks, pa)
	ss.ackMu.Unlock()
	if pa.ready.Load() {
		ss.kick()
	}
}

// readyAcks appends the Acks at the head of the queue whose batches have
// been served — the ready prefix, so Acks leave in request order — and
// frees their records.
func (ss *session) readyAcks(dst []wire.Ack) []wire.Ack {
	ss.ackMu.Lock()
	defer ss.ackMu.Unlock()
	k := 0
	for k < len(ss.acks) && ss.acks[k].ready.Load() {
		dst = append(dst, wire.Ack{Req: ss.acks[k].req, N: ss.acks[k].n})
		k++
	}
	if k > 0 {
		ss.ackFree = append(ss.ackFree, ss.acks[:k]...)
		n := copy(ss.acks, ss.acks[k:])
		clear(ss.acks[n:])
		ss.acks = ss.acks[:n]
	}
	return dst
}

// streamKey namespaces a raw event source under the tenant, interning the
// result so a stream costs one string for the life of the session instead of
// one per event.
func (ss *session) streamKey(source string) string {
	if key, ok := ss.streams[source]; ok {
		return key
	}
	if len(ss.streams) >= maxInternedStreams {
		clear(ss.streams)
	}
	key := ss.prefix + source
	ss.streams[source] = key
	return key
}

func (ss *session) handleSubscribe(payload []byte) bool {
	req, err := wire.DecodeSubscribe(payload)
	if err != nil {
		ss.sendError(0, wire.CodeProto, err.Error())
		return false
	}
	c := ss.coreRef()
	if c == nil {
		return false
	}
	if c.hasSub(req.ID) {
		ss.sendError(req.Req, wire.CodeInvalid, fmt.Sprintf("subscription id %d in use", req.ID))
		return true
	}
	// Resolve the name before building the ring, so a subscribe that cannot
	// succeed costs no replay buffer. Every query is the server's: a name
	// means the same query to every tenant.
	if req.Query != "" && !ss.srv.cfg.Runtime.HasQuery(req.Query) {
		ss.sendError(req.Req, wire.CodeUnknownQuery, fmt.Sprintf("%v: %q", runtime.ErrUnknownQuery, req.Query))
		return true
	}
	st := newSubState(c, req.ID, req.Query)
	if err := st.attach(); err != nil {
		// The query was unregistered since it resolved, or the runtime closed.
		code := wire.CodeInternal
		if errors.Is(err, runtime.ErrUnknownQuery) {
			code = wire.CodeUnknownQuery
		}
		ss.sendError(req.Req, code, err.Error())
		return true
	}
	ok, dup := c.addSub(st)
	if !ok {
		st.detach()
		if dup {
			ss.sendError(req.Req, wire.CodeInvalid, fmt.Sprintf("subscription id %d in use", req.ID))
			return true
		}
		return false // core retired: session is closing
	}
	// The ring was live on the bus before the writer could see it: what it
	// took in between was kicked for too early.
	ss.kick()
	return ss.writeFrame(wire.TSubscribed,
		wire.AppendSubscribed(nil, wire.Subscribed{Req: req.Req, ID: req.ID})) == nil
}

func (ss *session) handleUnsubscribe(payload []byte) bool {
	req, err := wire.DecodeUnsubscribe(payload)
	if err != nil {
		ss.sendError(0, wire.CodeProto, err.Error())
		return false
	}
	c := ss.coreRef()
	if c == nil || !c.removeSub(req.ID) {
		ss.sendError(req.Req, wire.CodeInvalid, fmt.Sprintf("unknown subscription id %d", req.ID))
		return true
	}
	return ss.sendAck(req.Req, 0)
}

// outbox is the writer's pending flush: encoded frames not yet on the wire,
// and what to credit once they are.
type outbox struct {
	buf           []byte
	answers, gaps int64
	traces        []int64   // TraceNanos of the traced answers in buf
	since         time.Time // when buf stopped being empty (encode histogram)
	// timed and traced say whether the server keeps the encode and delivery
	// histograms that since and traces feed.
	timed, traced bool
}

// add encodes one popped answer or gap marker behind the frames pending.
func (out *outbox) add(wa *wire.Answer) {
	if len(out.buf) == 0 && out.timed {
		out.since = time.Now()
	}
	out.buf = wire.AppendAnswerFrame(out.buf, wa)
	if wa.Gap {
		out.gaps++
	} else {
		out.answers++
	}
	if wa.TraceNanos != 0 && out.traced {
		out.traces = append(out.traces, wa.TraceNanos)
	}
}

// writeLoop is the session's single answer writer. A sweep drains every
// ring's ready run — gap markers included, one lock acquisition per run —
// into one reused buffer of back-to-back frames, which goes out as a single
// write when the rings run dry or it passes wire.BufferSize — never on a
// timer, so a lone answer on an idle connection leaves at once. The Acks of
// the ingests served by the time a sweep pass starts go out behind the
// sweep, in the same write: a shard publishes a batch's answers into the
// rings before its receipt marks the Ack ready, so every answer an acked
// batch produced for this connection precedes its Ack. Then the writer
// sleeps until a delivering shard or a served receipt kicks it. A pop lost
// to a failed write is not lost data — the client's next Resume rewinds the
// cursor to the truth.
func (ss *session) writeLoop() {
	defer ss.wg.Done()
	out := outbox{timed: ss.srv.encodeH != nil, traced: ss.srv.deliverH != nil}
	var subs []*subState
	var acks []wire.Ack
	for {
		acks = acks[:0]
		for popped := true; popped; {
			// Taken before each pass, so the sweep finds their answers;
			// an Ack whose batch was served while a pass popped its
			// answers is taken by the next pass, into the same write.
			acks = ss.readyAcks(acks)
			popped = false
			c := ss.coreRef()
			if c == nil {
				return
			}
			subs = c.snapshot(subs[:0])
			for _, st := range subs {
				for st.drain(&out) > 0 {
					popped = true
					if len(out.buf) < wire.BufferSize {
						break // the ring ran dry
					}
					if !ss.flush(&out) {
						return
					}
				}
			}
		}
		for _, a := range acks {
			out.buf = wire.AppendAckFrame(out.buf, a)
		}
		if !ss.flush(&out) {
			return
		}
		clear(subs) // a parked writer must not pin cancelled subscriptions
		select {
		case <-ss.wake:
		case <-ss.done:
			return
		}
	}
}

// flush writes the outbox as one write and, only once that succeeded,
// credits what it carried: the tenant's sent counters and the traced answers'
// final stage — an answer from a sampled ingest batch has left this process
// for its subscriber. It reports false when the session is dead.
func (ss *session) flush(out *outbox) bool {
	if len(out.buf) == 0 {
		return true
	}
	if out.answers+out.gaps > 0 {
		ss.srv.encodeH.ObserveSince(out.since)
	}
	if ss.writeBytes(out.buf) != nil {
		return false
	}
	ss.srv.flushes.Inc()
	ss.tenant.answersSent.Add(out.answers)
	ss.tenant.gapsSent.Add(out.gaps)
	if len(out.traces) > 0 {
		now := time.Now().UnixNano()
		for _, t := range out.traces {
			ss.srv.deliverH.Observe(time.Duration(now - t))
		}
	}
	out.buf, out.traces = out.buf[:0], out.traces[:0]
	out.answers, out.gaps = 0, 0
	return true
}

// writeBytes writes whole frames — one control frame or one answer flush — as
// a single Write under the write deadline. A failed write — timeout or
// otherwise — closes the session: a frame may be torn on the wire, so the
// connection is unusable.
func (ss *session) writeBytes(buf []byte) error {
	ss.wmu.Lock()
	if wt := ss.srv.heartbeat(); wt > 0 {
		ss.conn.SetWriteDeadline(time.Now().Add(wt))
	}
	_, err := ss.conn.Write(buf)
	ss.wmu.Unlock()
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() && ss.tenant != nil {
			ss.tenant.writeTimeouts.Inc()
		}
		ss.close()
	}
	return err
}

// writeFrame writes one control frame, serialized against the answer writer.
func (ss *session) writeFrame(t wire.Type, payload []byte) error {
	return ss.writeBytes(wire.AppendFrame(nil, t, payload))
}

// sendAck writes the Ack of a control request. Ingest Acks go out with the
// writer's flushes instead.
func (ss *session) sendAck(req, n uint64) bool {
	return ss.writeBytes(wire.AppendAckFrame(nil, wire.Ack{Req: req, N: n})) == nil
}

func (ss *session) sendError(req uint64, code uint8, msg string) {
	ss.writeFrame(wire.TError, wire.AppendError(nil, wire.Error{Req: req, Code: code, Msg: msg}))
}

// sendThrottled is a CodeThrottled error carrying the retry-after hint.
func (ss *session) sendThrottled(req uint64, msg string, wait time.Duration) {
	ss.writeFrame(wire.TError, wire.AppendError(nil, wire.Error{
		Req: req, Code: wire.CodeThrottled, Msg: msg,
		RetryAfterMillis: uint64(max(wait/time.Millisecond, 1)),
	}))
}

// goodbye announces an orderly server-side close (drain) without tearing the
// session down: the client keeps draining answers and closes when done.
func (ss *session) goodbye(reason string) {
	ss.writeFrame(wire.TGoodbye, wire.AppendGoodbye(nil, wire.Goodbye{Reason: reason}))
}
