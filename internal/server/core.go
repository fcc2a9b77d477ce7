package server

import (
	cryptorand "crypto/rand"
	"encoding/hex"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"patterndp/internal/runtime"
	"patterndp/internal/wire"
)

// ringChunk is how many answers one allocation of ring storage holds (32 KiB
// of wire.Answer; the default ReplayBuffer is exactly one chunk). A ring
// allocates a chunk the first time it keeps an answer in it, so a
// subscription holds storage for the answers it has retained, not for its
// capacity.
const ringChunk = 256

// subState is one subscription's outbound state: a bounded ring of the most
// recent answers, keyed by a per-subscription sequence number assigned at
// push. The ring is the runtime.Sink the serving shards deliver into, the
// outbound queue the session writer pops by cursor, and the replay buffer a
// resuming client reads its missed tail from. Overflow evicts the oldest
// entries; an eviction that outruns the cursor surfaces to the subscriber as
// an explicit Gap marker answer, never as silent loss.
type subState struct {
	id     uint64
	query  string // resolved runtime query name ("" = subscribe-all)
	core   *sessionCore
	detach func() // removes the ring from the runtime bus; set by attach

	mu     sync.Mutex
	size   uint64                    // capacity: seq s lives in slot (s-1)%size
	chunks []*[ringChunk]wire.Answer // slot i in chunks[i/ringChunk], nil until written
	head   uint64                    // highest seq pushed, 0 = none
	cursor uint64                    // next seq to deliver
	base   uint64                    // lowest seq actually retained (spill import may
	// restore fewer entries than the ring could hold; seqs below base are
	// gone and surface as a Gap, exactly like ring overflow)
}

func newSubState(c *sessionCore, id uint64, query string) *subState {
	size := uint64(c.srv.replayBuffer())
	return &subState{id: id, query: query, core: c, size: size,
		chunks: make([]*[ringChunk]wire.Answer, (size+ringChunk-1)/ringChunk), cursor: 1, base: 1}
}

// slot is seq's storage, its chunk allocated on first use. Callers hold mu
// (or own a ring not yet attached), and read only retained seqs, whose chunks
// a write has already allocated.
func (st *subState) slot(seq uint64) *wire.Answer {
	i := (seq - 1) % st.size
	c := st.chunks[i/ringChunk]
	if c == nil {
		c = new([ringChunk]wire.Answer)
		st.chunks[i/ringChunk] = c
	}
	return &c[i%ringChunk]
}

// slots counts the ring's allocated answer slots. Callers hold mu.
func (st *subState) slots() int64 {
	n := int64(0)
	for _, c := range st.chunks {
		if c != nil {
			n += ringChunk
		}
	}
	return n
}

// attach subscribes the ring to its query on the runtime bus. Answers may
// arrive from that instant, so a ring restored from a spill is reseeded first.
func (st *subState) attach() (err error) {
	st.detach, err = st.core.srv.cfg.Runtime.Attach(st.query, st)
	return err
}

// Deliver is the runtime.Sink: called on a shard goroutine with one message's
// answers, it keeps the ones this session may see, pushes them in their wire
// form under one ring lock and wakes the session writer once. It never
// blocks: ring overflow evicts (and is counted against the tenant), so a slow
// connection only ever costs itself — it cannot backpressure a shard. The
// ring lock is what serializes concurrent shards into one sequence space.
func (st *subState) Deliver(batch []runtime.Answer) {
	c := st.core
	n := st.size
	pushed, evicted := false, int64(0)
	st.mu.Lock()
	for i := range batch {
		a := &batch[i]
		stream, ok := c.visible(a)
		if !ok {
			continue // not ours: it takes no seq and no storage
		}
		st.head++
		// Field by field through the slot pointer: a composite literal
		// would build the 128-byte answer in a temporary and copy it in.
		w := st.slot(st.head)
		w.Sub, w.Seq = st.id, st.head
		w.Stream, w.Query = stream, a.Query
		w.Epoch, w.WindowIndex = uint64(a.Epoch), uint64(a.WindowIndex)
		w.Start, w.End = int64(a.Start), int64(a.End)
		w.Detected, w.Suppressed = a.Detected, a.Suppressed
		w.SpentEpsilon, w.RemainingEpsilon = float64(a.SpentEpsilon), float64(a.RemainingEpsilon)
		w.Gap, w.GapFrom = false, 0
		w.TraceNanos = a.TraceNanos
		if st.head > n && st.cursor <= st.head-n {
			evicted++ // the overwritten entry was still undelivered: a future Gap
		}
		pushed = true
	}
	st.mu.Unlock()
	if evicted > 0 {
		c.tenant.answersDropped.Add(evicted)
	}
	if pushed {
		c.notify()
	}
}

// drain pops the ring's ready run under one lock acquisition, encoding each
// answer into out; where eviction has outrun the cursor the run starts with a
// Gap marker covering exactly the evicted range. It stops early once out is
// due a flush, and returns how many frames it popped.
func (st *subState) drain(out *outbox) (popped int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for st.cursor <= st.head && len(out.buf) < wire.BufferSize {
		if oldest := st.oldest(); st.cursor < oldest {
			gap := wire.Answer{Sub: st.id, Seq: oldest - 1, Gap: true, GapFrom: st.cursor}
			out.add(&gap)
			st.cursor = oldest
		} else {
			out.add(st.slot(st.cursor))
			st.cursor++
		}
		popped++
	}
	return popped
}

// oldest is the lowest sequence number still in the ring. Callers hold mu.
func (st *subState) oldest() uint64 {
	o := uint64(1)
	if st.head > st.size {
		o = st.head - st.size + 1
	}
	if st.base > o {
		o = st.base
	}
	return o
}

// rewind moves the cursor to the first sequence number after lastSeq (clamped
// to the produced range) and returns the replay backlog now pending. Replay
// of anything already evicted surfaces as a Gap on the next pop.
func (st *subState) rewind(lastSeq uint64) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.cursor = min(lastSeq+1, st.head+1)
	return st.head + 1 - st.cursor
}

// sessionCore is the durable half of a session: the tenant identity and the
// per-subscription replay rings the runtime's shards deliver into. It owns no
// goroutine. A core is bound to at most one live connection at a time but
// outlives any of them — after a disconnect it lingers for the server's
// resume window so a reconnecting client can re-attach by session token and
// replay its missed tail.
type sessionCore struct {
	srv    *Server
	token  string
	tenant *tenantState
	prefix string

	// attached is the current connection, nil while parked. It is written
	// under mu; the delivery path loads it without.
	attached atomic.Pointer[session]

	mu       sync.Mutex
	subs     map[uint64]*subState
	reap     *time.Timer // pending expiry while parked
	parkedAt time.Time   // when the core last parked (eviction order)
	retired  bool
}

// randomToken mints an unguessable session token.
func randomToken() string {
	var b [16]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		panic("server: session token entropy: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// newCore registers a fresh core attached to ss.
func (s *Server) newCore(ts *tenantState, prefix string, ss *session) *sessionCore {
	c := &sessionCore{
		srv:    s,
		token:  randomToken(),
		tenant: ts,
		prefix: prefix,
		subs:   make(map[uint64]*subState),
	}
	c.attached.Store(ss)
	s.mu.Lock()
	s.cores[c.token] = c
	s.mu.Unlock()
	return c
}

// lookupCore resolves a session token, nil when unknown or expired.
func (s *Server) lookupCore(token string) *sessionCore {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cores[token]
}

func (s *Server) dropCore(token string) {
	s.mu.Lock()
	delete(s.cores, token)
	s.mu.Unlock()
}

// adopt claims the core for a resuming session, stealing it from a previous
// connection that is still formally attached (a half-dead peer). It returns
// false when the core has already been retired. On return the previous
// session's writer has fully stopped, so the caller may rewind cursors.
func (c *sessionCore) adopt(ss *session) bool {
	c.mu.Lock()
	if c.retired {
		c.mu.Unlock()
		return false
	}
	if c.reap != nil {
		c.reap.Stop()
		c.reap = nil
	}
	prev := c.attached.Swap(ss)
	c.mu.Unlock()
	if prev != nil && prev != ss {
		prev.close()
		prev.wg.Wait()
	}
	return true
}

// detach releases the core when ss's connection ends. An orderly goodbye (or
// a stopping server, a disabled resume window, or an empty core) retires the
// state immediately; otherwise it parks for the resume window awaiting a
// Resume, then expires. A server draining for handoff parks even though it is
// stopping — the parked state is about to be spilled for the takeover peer.
func (c *sessionCore) detach(ss *session, orderly bool) {
	c.mu.Lock()
	if c.attached.Load() != ss || c.retired {
		c.mu.Unlock()
		return
	}
	c.attached.Store(nil)
	window := c.srv.resumeWindow()
	if orderly || window <= 0 || (c.srv.stopping() && !c.srv.handingOff()) || len(c.subs) == 0 {
		c.mu.Unlock()
		c.retireIf(false)
		return
	}
	c.parkedAt = time.Now()
	c.reap = time.AfterFunc(window, func() {
		c.srv.coresExpired.Inc()
		c.retireIf(true)
	})
	c.mu.Unlock()
	c.srv.enforceParkCap()
}

// retireIf tears the core down exactly once: every ring is detached from the
// runtime bus and the token is dropped. With onlyIfDetached it is the reap
// path, which must lose the race against a resume that re-attached the core.
// It reports whether this call performed the retire.
func (c *sessionCore) retireIf(onlyIfDetached bool) bool {
	c.mu.Lock()
	if c.retired || (onlyIfDetached && c.attached.Load() != nil) {
		c.mu.Unlock()
		return false
	}
	c.retired = true
	if c.reap != nil {
		c.reap.Stop()
		c.reap = nil
	}
	subs := c.subs
	c.subs = nil
	c.mu.Unlock()
	for _, st := range subs {
		st.detach()
	}
	c.srv.dropCore(c.token)
	return true
}

// addSub installs an attached subscription ring, where the writer's sweeps
// find it. dup reports an id collision; ok is false when the core has been
// retired. Either way the caller still owns the ring and detaches it.
func (c *sessionCore) addSub(st *subState) (ok, dup bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.retired {
		return false, false
	}
	if _, exists := c.subs[st.id]; exists {
		return false, true
	}
	c.subs[st.id] = st
	return true, false
}

// removeSub cancels a subscription; pending ring entries are discarded.
func (c *sessionCore) removeSub(id uint64) bool {
	c.mu.Lock()
	st := c.subs[id]
	delete(c.subs, id)
	c.mu.Unlock()
	if st == nil {
		return false
	}
	st.detach()
	return true
}

// hasSub reports whether id is live.
func (c *sessionCore) hasSub(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.subs[id]
	return ok
}

// snapshot appends the live rings to dst for a writer sweep.
func (c *sessionCore) snapshot(dst []*subState) []*subState {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, st := range c.subs {
		dst = append(dst, st)
	}
	return dst
}

// resume rewinds the listed subscriptions to their client-reported positions
// and cancels the rest. It returns the resumed ids (sorted) and the total
// replay backlog queued.
func (c *sessionCore) resume(reqSubs []wire.ResumeSub) ([]uint64, uint64) {
	want := make(map[uint64]uint64, len(reqSubs))
	for _, rs := range reqSubs {
		want[rs.ID] = rs.LastSeq
	}
	var drop []*subState
	var ids []uint64
	var replay uint64
	c.mu.Lock()
	for id, st := range c.subs {
		last, ok := want[id]
		if !ok {
			delete(c.subs, id)
			drop = append(drop, st)
			continue
		}
		replay += st.rewind(last)
		ids = append(ids, id)
	}
	c.mu.Unlock()
	for _, st := range drop {
		st.detach()
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, replay
}

// notify wakes the writer of whatever session is currently attached.
func (c *sessionCore) notify() {
	if ss := c.attached.Load(); ss != nil {
		ss.kick()
	}
}

// visible reports whether this session may see a runtime answer and, if so,
// the stream key it goes on the wire under. Answers from other tenants'
// streams are filtered here — this is the isolation boundary for every
// subscription — and the namespace prefix is stripped before the wire.
func (c *sessionCore) visible(a *runtime.Answer) (stream string, ok bool) {
	return strings.CutPrefix(a.Stream, c.prefix)
}
