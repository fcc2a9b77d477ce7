package server

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"patterndp/internal/event"
	"patterndp/internal/wire"
)

// ClientConfig configures a Client opened with Connect.
type ClientConfig struct {
	// Token authenticates the tenant.
	Token string
	// Dialer opens the transport; it is reused for every reconnect attempt.
	// Required.
	Dialer func() (net.Conn, error)
	// RequestTimeout bounds each synchronous round-trip (Ingest, Subscribe,
	// Unsubscribe): a stalled server surfaces as an error instead of a hung
	// call. 0 = 10s; negative disables.
	RequestTimeout time.Duration
	// Reconnect enables automatic reconnect-with-resume: after a dropped
	// connection the client re-dials with exponential backoff + jitter,
	// presents its session token and last-seen sequence numbers, and either
	// replays the missed tail (deduplicated by seq) or surfaces an explicit
	// Gap marker on each subscription whose replay state expired.
	Reconnect bool
	// BackoffMin and BackoffMax bound the reconnect backoff. Defaults:
	// 100ms and 5s.
	BackoffMin, BackoffMax time.Duration
}

// Client is a tenant-side connection to a Server. Requests (Ingest,
// Subscribe, Unsubscribe) are synchronous — each waits for its Ack or
// Error under the request timeout — while answers stream asynchronously into
// per-subscription channels, deduplicated by sequence number. A Client is
// safe for concurrent use; requests from multiple goroutines are serialized
// per id.
type Client struct {
	cfg ClientConfig

	wmu  sync.Mutex // serializes frame writes
	wbuf []byte     // the frame being written; guarded by wmu
	req  reqCounter

	mu        sync.Mutex
	conn      net.Conn
	gen       uint64 // bumped on every detach; stale goroutines self-retire
	welcome   wire.Welcome
	session   string // current resume token
	heartbeat time.Duration
	pending   map[uint64]*replySlot      // request id → reply slot
	free      []*replySlot               // slots whose replies were received
	subs      map[uint64]*clientSubState // subscription id → delivery state
	subID     uint64
	err       error // terminal error
	closed    bool
	done      chan struct{}

	reconnects atomic.Int64 // successful resume handshakes
	dupsSeen   atomic.Int64 // replay-overlap answers dropped by seq dedup

	// Goodbye receives the server's drain announcement, if any (buffered;
	// at most one).
	Goodbye chan wire.Goodbye
}

// result is one request's Ack, Error, or connection failure.
type result struct {
	ack  wire.Ack
	werr *wire.Error
	err  error
}

// clientSubState is one subscription's delivery state, closed exactly once
// no matter who terminates it first (Unsubscribe, Close, or the read loop's
// failure path). It mirrors the runtime bus's Subscription: done is closed
// before the channel so a blocked delivery aborts instead of racing the
// close, and sendMu serializes deliveries against the close itself.
type clientSubState struct {
	id    uint64
	query string
	// lastSeq is the highest delivered sequence number; it is only touched
	// by the read/reconnect goroutine chain (never two of them at once).
	lastSeq uint64

	ch   chan wire.Answer
	done chan struct{}
	once sync.Once

	// sendMu guards closed: it is read by every send and written once, by
	// terminate, under the same lock.
	sendMu sync.Mutex
	closed bool
}

// send delivers one answer, blocking while the buffer is full — an undrained
// subscription deliberately stalls the client's read loop.
func (s *clientSubState) send(a *wire.Answer) {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if s.closed {
		return
	}
	// A drained buffer takes the answer at once; only a full one waits, and
	// only that wait needs done to abort it.
	select {
	case s.ch <- *a:
		return
	default:
	}
	select {
	case s.ch <- *a:
	case <-s.done:
	}
}

// terminate closes the subscription exactly once; buffered answers stay
// drainable.
func (s *clientSubState) terminate() {
	s.once.Do(func() {
		close(s.done)
		s.sendMu.Lock()
		s.closed = true
		close(s.ch)
		s.sendMu.Unlock()
	})
}

// RemoteError is a server-reported request failure.
type RemoteError struct {
	Code uint8
	Msg  string
	// RetryAfterMillis is the server's hint for when to retry a
	// CodeThrottled refusal (0 elsewhere).
	RetryAfterMillis uint64
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("server error %d: %s", e.Code, e.Msg)
}

// handshake performs Hello → Welcome on a fresh connection.
func handshake(conn net.Conn, token string) (wire.Welcome, *wire.Reader, error) {
	h := wire.Hello{Proto: wire.Version, Token: token}
	if err := wire.WriteFrame(conn, wire.THello, wire.AppendHello(nil, h)); err != nil {
		return wire.Welcome{}, nil, err
	}
	r := wire.NewReader(conn)
	f, err := r.Next()
	if err != nil {
		return wire.Welcome{}, nil, fmt.Errorf("server: handshake: %w", err)
	}
	switch f.Type {
	case wire.TWelcome:
	case wire.TError:
		we, derr := wire.DecodeError(f.Payload)
		if derr != nil {
			return wire.Welcome{}, nil, derr
		}
		return wire.Welcome{}, nil, &RemoteError{Code: we.Code, Msg: we.Msg}
	default:
		return wire.Welcome{}, nil, fmt.Errorf("server: handshake: unexpected frame %v", f.Type)
	}
	w, err := wire.DecodeWelcome(f.Payload)
	if err != nil {
		return wire.Welcome{}, nil, err
	}
	return w, r, nil
}

// Connect dials through cfg.Dialer and performs the handshake. With
// cfg.Reconnect, the client survives dropped connections: it re-dials with
// backoff and resumes its session.
func Connect(cfg ClientConfig) (*Client, error) {
	if cfg.Dialer == nil {
		return nil, errors.New("server: ClientConfig.Dialer is required")
	}
	conn, err := cfg.Dialer()
	if err != nil {
		return nil, err
	}
	c := newClient(cfg)
	w, r, err := handshake(conn, cfg.Token)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.attach(conn, w, w.Session)
	go c.readLoop(r, conn, 0)
	go c.heartbeatLoop(conn, 0, c.heartbeatInterval())
	return c, nil
}

func newClient(cfg ClientConfig) *Client {
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = 100 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	return &Client{
		cfg:     cfg,
		pending: make(map[uint64]*replySlot),
		subs:    make(map[uint64]*clientSubState),
		done:    make(chan struct{}),
		Goodbye: make(chan wire.Goodbye, 1),
	}
}

// attach installs a live connection, its handshake facts and its resume
// token. Callers hold c.mu, or (Connect) have not yet shared c with a
// goroutine.
func (c *Client) attach(conn net.Conn, w wire.Welcome, session string) {
	c.conn = conn
	c.welcome = w
	c.session = session
	c.heartbeat = time.Duration(w.HeartbeatMillis) * time.Millisecond
}

// Welcome returns the latest handshake reply (tenant id, shard count, budget
// grant, the server's query names, session facts).
func (c *Client) Welcome() wire.Welcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.welcome
}

// Session returns the current resume token.
func (c *Client) Session() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.session
}

// Reconnects counts successful resume handshakes.
func (c *Client) Reconnects() int64 { return c.reconnects.Load() }

// DupsDropped counts replay-overlap answers suppressed by seq dedup.
func (c *Client) DupsDropped() int64 { return c.dupsSeen.Load() }

func (c *Client) heartbeatInterval() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.heartbeat
}

func (c *Client) requestTimeout() time.Duration {
	return max(c.cfg.RequestTimeout, 0)
}

// readLoop demultiplexes inbound frames for one connection generation:
// answers to their subscription channels (deduplicated by seq), acks and
// errors to their pending request slots. On exit it detaches the generation,
// which either fails the client or hands off to the reconnect loop.
func (c *Client) readLoop(r *wire.Reader, conn net.Conn, gen uint64) {
	var err error
	defer func() { c.detach(gen, conn, err) }()
	// Answers repeat a few stream keys and query names: interned, a steady
	// stream of them decodes without allocating, into one reused answer.
	var names wire.Interner
	var a wire.Answer
	var st *clientSubState // the subscription the last answer went to
	for {
		// Only a Next that must read the transport can block on the server,
		// and every one that does gets a fresh deadline: delivering the
		// frames buffered behind the last read may have outlasted the old one.
		if !r.Ready() {
			if h := c.heartbeatInterval(); h > 0 {
				conn.SetReadDeadline(time.Now().Add(2 * h))
			}
		}
		var f wire.Frame
		f, err = r.Next()
		if err != nil {
			return
		}
		switch f.Type {
		case wire.TAnswer:
			if err = names.DecodeAnswer(f.Payload, &a); err != nil {
				return
			}
			// Blocking delivery is deliberate: an undrained subscription
			// stalls this client's reads (and, via the transport, the
			// server's writer for this connection only).
			st = c.deliver(&a, st)
		case wire.TAck:
			a, derr := wire.DecodeAck(f.Payload)
			if derr != nil {
				err = derr
				return
			}
			c.reply(a.Req, result{ack: a})
		case wire.TSubscribed:
			s, derr := wire.DecodeSubscribed(f.Payload)
			if derr != nil {
				err = derr
				return
			}
			c.reply(s.Req, result{ack: wire.Ack{Req: s.Req, N: s.ID}})
		case wire.TError:
			e, derr := wire.DecodeError(f.Payload)
			if derr != nil {
				err = derr
				return
			}
			if e.Req == 0 {
				err = &RemoteError{Code: e.Code, Msg: e.Msg}
				return
			}
			c.reply(e.Req, result{werr: &e})
		case wire.TGoodbye:
			g, derr := wire.DecodeGoodbye(f.Payload)
			if derr != nil {
				err = derr
				return
			}
			select {
			case c.Goodbye <- g:
			default:
			}
		case wire.TPing:
			p, derr := wire.DecodePing(f.Payload)
			if derr != nil {
				err = derr
				return
			}
			c.writeFrame(conn, wire.TPong, wire.AppendPong(nil, wire.Pong{Nonce: p.Nonce}))
		case wire.TPong:
			// Liveness confirmed by the frame's arrival itself.
		default:
			err = fmt.Errorf("server: unexpected frame %v", f.Type)
			return
		}
	}
}

// deliver routes one answer to its subscription, dropping replay duplicates
// by sequence number, and returns the subscription's state. Answers come in
// runs for one subscription, so while a.Sub is last's id the lookup is
// skipped: ids are never reused, a re-subscription after an expired resume
// keeps its state, and a state terminated since (Unsubscribe, Close) drops
// what it is sent.
func (c *Client) deliver(a *wire.Answer, last *clientSubState) *clientSubState {
	st := last
	if st == nil || st.id != a.Sub {
		c.mu.Lock()
		st = c.subs[a.Sub]
		c.mu.Unlock()
		if st == nil {
			return last
		}
	}
	if a.Seq != 0 {
		if a.Seq <= st.lastSeq {
			c.dupsSeen.Add(1)
			return st
		}
		st.lastSeq = a.Seq
	}
	st.send(a)
	return st
}

// heartbeatLoop pings the server every interval; the pongs (and any other
// inbound frames) keep the read deadline fed. A failed ping closes the
// connection, forcing the read loop into its detach path.
func (c *Client) heartbeatLoop(conn net.Conn, gen uint64, h time.Duration) {
	if h <= 0 {
		return
	}
	t := time.NewTicker(h)
	defer t.Stop()
	var nonce uint64
	for {
		select {
		case <-t.C:
			c.mu.Lock()
			stale := c.closed || c.gen != gen
			c.mu.Unlock()
			if stale {
				return
			}
			nonce++
			if c.writeFrame(conn, wire.TPing, wire.AppendPing(nil, wire.Ping{Nonce: nonce})) != nil {
				conn.Close()
				return
			}
		case <-c.done:
			return
		}
	}
}

// writeFrame writes one frame to a specific connection under the request
// write deadline.
func (c *Client) writeFrame(conn net.Conn, t wire.Type, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = wire.AppendFrame(c.wbuf[:0], t, payload)
	return c.writeLocked(conn)
}

// writeIngest is writeFrame for an Ingest, encoded straight into the write
// buffer: a steady ingest loop allocates nothing per batch to send it.
func (c *Client) writeIngest(conn net.Conn, in wire.Ingest) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = wire.AppendIngestFrame(c.wbuf[:0], in)
	return c.writeLocked(conn)
}

// writeLocked writes the frame held in wbuf as a single Write; the caller
// holds wmu.
func (c *Client) writeLocked(conn net.Conn) error {
	if wt := c.requestTimeout(); wt > 0 {
		conn.SetWriteDeadline(time.Now().Add(wt))
	}
	_, err := conn.Write(c.wbuf)
	return err
}

func (c *Client) reply(req uint64, res result) {
	c.mu.Lock()
	slot := c.pending[req]
	delete(c.pending, req)
	c.mu.Unlock()
	if slot != nil {
		slot.ch <- res
	}
}

// errConnLost is wrapped into pending-request failures on a disconnect.
var errConnLost = errors.New("server: connection lost")

// detach retires one connection generation: pending requests fail fast, and
// — when reconnect is enabled — the reconnect loop takes over in this
// goroutine (the read loop is the only caller, so at most one of read loop /
// reconnect loop ever touches delivery state). Without reconnect, the client
// fails terminally.
func (c *Client) detach(gen uint64, conn net.Conn, cause error) {
	conn.Close()
	c.mu.Lock()
	if c.gen != gen || c.closed {
		c.mu.Unlock()
		return
	}
	c.gen++
	next := c.gen
	pending := c.pending
	c.pending = make(map[uint64]*replySlot)
	reconnect := c.cfg.Reconnect
	c.mu.Unlock()
	if cause == nil {
		cause = errClientClosed
	}
	for _, slot := range pending {
		slot.ch <- result{err: fmt.Errorf("%w: %w", errConnLost, cause)}
	}
	if reconnect {
		c.reconnectLoop(next)
	} else {
		c.fail(cause)
	}
}

// reconnectLoop re-dials with exponential backoff + jitter until an attempt
// succeeds or the client closes.
func (c *Client) reconnectLoop(gen uint64) {
	// The jitter is seeded per connection generation, so the schedule is
	// deterministic.
	rng := rand.New(rand.NewSource(1 + int64(gen)))
	backoff := c.cfg.BackoffMin
	for {
		c.mu.Lock()
		stale := c.closed || c.gen != gen
		c.mu.Unlock()
		if stale {
			return
		}
		if c.tryResume(gen) {
			return
		}
		// Full jitter on top of the exponential step.
		d := backoff + time.Duration(rng.Int63n(int64(backoff)+1))
		select {
		case <-time.After(d):
		case <-c.done:
			return
		}
		backoff = min(backoff*2, c.cfg.BackoffMax)
	}
}

// tryResume makes one reconnect attempt: dial, handshake, Resume with the
// last-seen seq per subscription, then hand delivery to a fresh read loop.
// Subscriptions whose replay state expired get a synthetic Gap marker (Seq 0:
// extent unknown) and are re-subscribed from scratch. It returns true when
// the client is live again (or closed); false schedules another attempt.
func (c *Client) tryResume(gen uint64) bool {
	conn, err := c.cfg.Dialer()
	if err != nil {
		return false
	}
	w, r, err := handshake(conn, c.cfg.Token)
	if err != nil {
		conn.Close()
		return false
	}
	c.mu.Lock()
	session := c.session
	var rsubs []wire.ResumeSub
	states := make([]*clientSubState, 0, len(c.subs))
	for _, st := range c.subs {
		rsubs = append(rsubs, wire.ResumeSub{ID: st.id, LastSeq: st.lastSeq})
		states = append(states, st)
	}
	c.mu.Unlock()
	req := c.req.next()
	if err := c.writeFrame(conn, wire.TResume,
		wire.AppendResume(nil, wire.Resume{Req: req, Session: session, Subs: rsubs})); err != nil {
		conn.Close()
		return false
	}
	f, err := r.Next()
	if err != nil || f.Type != wire.TResumed {
		conn.Close()
		return false
	}
	resd, err := wire.DecodeResumed(f.Payload)
	if err != nil {
		conn.Close()
		return false
	}
	resumed := make(map[uint64]bool, len(resd.Subs))
	for _, id := range resd.Subs {
		resumed[id] = true
	}

	c.mu.Lock()
	if c.closed || c.gen != gen {
		c.mu.Unlock()
		conn.Close()
		return true
	}
	c.attach(conn, w, resd.Session)
	c.mu.Unlock()
	c.reconnects.Add(1)

	// Expired subscriptions: the missed tail is unrecoverable. Surface an
	// explicit local Gap marker (Seq 0 = extent unknown) and restart the
	// subscription's sequence space before re-subscribing.
	var missing []*clientSubState
	for _, st := range states {
		if !resumed[st.id] {
			st.send(&wire.Answer{Sub: st.id, Query: st.query, Gap: true, GapFrom: st.lastSeq + 1})
			st.lastSeq = 0
			missing = append(missing, st)
		}
	}

	go c.readLoop(r, conn, gen)
	go c.heartbeatLoop(conn, gen, c.heartbeatInterval())

	for _, st := range missing {
		req := c.req.next()
		if _, err := c.call(wire.TSubscribe, req,
			wire.AppendSubscribe(nil, wire.Subscribe{Req: req, ID: st.id, Query: st.query})); err != nil {
			var re *RemoteError
			if errors.As(err, &re) {
				// The server rejected the re-subscription outright (e.g.
				// the query is gone): the subscription is dead.
				c.mu.Lock()
				delete(c.subs, st.id)
				c.mu.Unlock()
				st.terminate()
				continue
			}
			// Connection-level failure: the new read loop's detach path
			// handles the retry.
			return true
		}
	}
	return true
}

// fail terminates the client, releasing every pending request and closing
// every subscription channel.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		if err == nil {
			err = errClientClosed
		}
		c.err = err
	}
	c.closed = true
	c.gen++
	conn := c.conn
	pending := c.pending
	c.pending = make(map[uint64]*replySlot)
	subs := c.subs
	c.subs = make(map[uint64]*clientSubState)
	select {
	case <-c.done:
	default:
		close(c.done)
	}
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	for _, slot := range pending {
		slot.ch <- result{err: err}
	}
	for _, st := range subs {
		st.terminate()
	}
}

// Err returns the terminal error, nil while the client is live (including
// while it is between connections, reconnecting).
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close sends a Goodbye and closes the connection. Any reconnect loop stops.
func (c *Client) Close() error {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		c.writeFrame(conn, wire.TGoodbye, wire.AppendGoodbye(nil, wire.Goodbye{Reason: "client done"}))
	}
	c.fail(errClientClosed)
	return nil
}

// call sends one request frame (payload only; framing happens here) and
// waits for its Ack or Error under the request timeout.
func (c *Client) call(t wire.Type, req uint64, payload []byte) (wire.Ack, error) {
	conn, slot, err := c.register(req)
	if err != nil {
		return wire.Ack{}, err
	}
	return c.await(req, slot, c.writeFrame(conn, t, payload))
}

// replySlot is where one request's reply lands: the read loop (or a failing
// connection) sends exactly one result on ch, and timer bounds the wait for
// it. A slot goes back to the free list only once its result has been
// received; one whose wait ended otherwise (a timeout, a failed write) may
// still be sent a late reply, so it is dropped.
type replySlot struct {
	ch    chan result
	timer *time.Timer // nil until a wait is bounded
}

// register takes a free reply slot and files it under request req, returning
// the connection to send the request on.
func (c *Client) register(req uint64) (net.Conn, *replySlot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, nil, c.err
	}
	var slot *replySlot
	if k := len(c.free); k > 0 {
		slot = c.free[k-1]
		c.free = c.free[:k-1]
	} else {
		slot = &replySlot{ch: make(chan result, 1)}
	}
	c.pending[req] = slot
	return c.conn, slot, nil
}

// await waits for request req's reply once its frame was written (werr is
// the write's error) under the request timeout.
func (c *Client) await(req uint64, slot *replySlot, werr error) (wire.Ack, error) {
	if werr != nil {
		c.abandon(req)
		return wire.Ack{}, werr
	}
	var timeout <-chan time.Time
	if rt := c.requestTimeout(); rt > 0 {
		// Since Go 1.23 a Reset timer never delivers a tick from before the
		// Reset, so a slot's timer is reused as it is.
		if slot.timer == nil {
			slot.timer = time.NewTimer(rt)
		} else {
			slot.timer.Reset(rt)
		}
		timeout = slot.timer.C
	}
	select {
	case res := <-slot.ch:
		if slot.timer != nil {
			slot.timer.Stop()
		}
		c.mu.Lock()
		c.free = append(c.free, slot)
		c.mu.Unlock()
		if res.err != nil {
			return wire.Ack{}, res.err
		}
		if res.werr != nil {
			return wire.Ack{}, &RemoteError{Code: res.werr.Code, Msg: res.werr.Msg, RetryAfterMillis: res.werr.RetryAfterMillis}
		}
		return res.ack, nil
	case <-timeout:
		c.abandon(req)
		return wire.Ack{}, fmt.Errorf("server: request timed out after %v", c.requestTimeout())
	}
}

// abandon stops waiting for request req's reply. Its slot is not reused.
func (c *Client) abandon(req uint64) {
	c.mu.Lock()
	delete(c.pending, req)
	c.mu.Unlock()
}

// Ingest sends a batch of events and waits for the server's Ack. Event
// sources are tenant-relative stream keys; the server namespaces them. On
// success n is len(evs) and every event has been served: a full shard makes
// the batch wait rather than evict another, so no part of an acked batch is
// dropped for overload. RequestTimeout bounds the wait.
//
// The server acks a batch once it is served, behind every answer the batch
// produced for this connection's subscriptions, so those answers must reach
// their channels before the Ack can be read. Drain the subscriptions on
// another goroutine, or give each a buf that holds every answer one batch
// produces: a caller that ingests and drains on one goroutine otherwise
// waits out RequestTimeout whenever a batch overfills a channel.
func (c *Client) Ingest(evs []event.Event) (int, error) {
	req := c.req.next()
	conn, slot, err := c.register(req)
	if err != nil {
		return 0, err
	}
	ack, err := c.await(req, slot, c.writeIngest(conn, wire.Ingest{Req: req, Events: evs}))
	if err != nil {
		return 0, err
	}
	return int(ack.N), nil
}

// ClientSub is a client-side subscription handle.
type ClientSub struct {
	// C streams the subscription's answers; it closes when the client
	// closes or the subscription is cancelled. Drain it — an undrained
	// subscription stalls the client's read loop, and with it the Acks of
	// ingests queued behind its answers (see Client.Ingest). Answers carry
	// contiguous per-subscription Seq numbers; a Gap marker answer (Gap
	// true) reports sequence numbers lost to replay-ring overflow or an
	// expired resume (Seq 0 on a marker means the extent of the loss is
	// unknown).
	C <-chan wire.Answer

	id uint64
	c  *Client
}

// Subscribe opens a streaming subscription for a query name ("" for every
// query the server serves). buf is the local answer buffer (default 64).
// An ingest's Ack follows the answers its batch produced, so drain C
// concurrently with Ingest, or size buf for every answer one batch produces.
func (c *Client) Subscribe(query string, buf int) (*ClientSub, error) {
	if buf <= 0 {
		buf = 64
	}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.subID++
	id := c.subID
	st := &clientSubState{
		id:    id,
		query: query,
		ch:    make(chan wire.Answer, buf),
		done:  make(chan struct{}),
	}
	c.subs[id] = st
	c.mu.Unlock()

	req := c.req.next()
	_, err := c.call(wire.TSubscribe, req,
		wire.AppendSubscribe(nil, wire.Subscribe{Req: req, ID: id, Query: query}))
	if err != nil {
		c.mu.Lock()
		delete(c.subs, id)
		c.mu.Unlock()
		st.terminate()
		return nil, err
	}
	return &ClientSub{C: st.ch, id: id, c: c}, nil
}

// Unsubscribe cancels a subscription server-side and closes its channel.
func (c *Client) Unsubscribe(s *ClientSub) error {
	// Terminate locally first: if the read loop is blocked delivering into
	// this very subscription, that send must abort before the loop can
	// surface the Unsubscribe ack the call below waits for.
	c.mu.Lock()
	st := c.subs[s.id]
	delete(c.subs, s.id)
	c.mu.Unlock()
	if st != nil {
		st.terminate()
	}
	req := c.req.next()
	_, err := c.call(wire.TUnsubscribe, req,
		wire.AppendUnsubscribe(nil, wire.Unsubscribe{Req: req, ID: s.id}))
	return err
}

// errClientClosed is reported for requests issued after Close.
var errClientClosed = errors.New("server: client closed")
