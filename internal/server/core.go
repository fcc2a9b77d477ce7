package server

import (
	cryptorand "crypto/rand"
	"encoding/hex"
	"sort"
	"strings"
	"sync"
	"time"

	"patterndp/internal/runtime"
	"patterndp/internal/wire"
)

// subState is one subscription's outbound state: a bounded ring of the most
// recent answers, keyed by a per-subscription sequence number assigned at
// push. The ring IS the outbound queue — the session writer pops by cursor —
// and doubles as the replay buffer a resuming client reads its missed tail
// from. Overflow evicts the oldest entries; an eviction that outruns the
// cursor surfaces to the subscriber as an explicit Gap marker answer, never
// as silent loss.
type subState struct {
	id    uint64
	query string // resolved runtime query name ("" = subscribe-all)
	sub   *runtime.Subscription

	mu     sync.Mutex
	buf    []wire.Answer // ring; seq s lives at buf[(s-1)%len]
	head   uint64        // highest seq pushed, 0 = none
	cursor uint64        // next seq to deliver
	base   uint64        // lowest seq actually retained (spill import may
	// restore fewer entries than the ring could hold; seqs below base are
	// gone and surface as a Gap, exactly like ring overflow)
}

func newSubState(id uint64, query string, sub *runtime.Subscription, ringCap int) *subState {
	return &subState{id: id, query: query, sub: sub, buf: make([]wire.Answer, ringCap), cursor: 1, base: 1}
}

// push assigns the next sequence number and stores the answer, evicting the
// oldest ring entry on overflow. It reports whether the evicted entry was
// still undelivered (the future Gap).
func (st *subState) push(a wire.Answer) (evicted bool) {
	st.mu.Lock()
	st.head++
	a.Sub, a.Seq = st.id, st.head
	n := uint64(len(st.buf))
	evicted = st.head > n && st.cursor <= st.head-n
	st.buf[(st.head-1)%n] = a
	st.mu.Unlock()
	return evicted
}

// next pops the next undelivered answer. When eviction has outrun the cursor
// it instead returns a Gap marker covering exactly the evicted range.
func (st *subState) next() (wire.Answer, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.cursor > st.head {
		return wire.Answer{}, false
	}
	if oldest := st.oldest(); st.cursor < oldest {
		gap := wire.Answer{Sub: st.id, Seq: oldest - 1, Gap: true, GapFrom: st.cursor}
		st.cursor = oldest
		return gap, true
	}
	a := st.buf[(st.cursor-1)%uint64(len(st.buf))]
	st.cursor++
	return a, true
}

// oldest is the lowest sequence number still in the ring. Callers hold mu.
func (st *subState) oldest() uint64 {
	o := uint64(1)
	if st.head > uint64(len(st.buf)) {
		o = st.head - uint64(len(st.buf)) + 1
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

// sessionCore is the durable half of a session: the tenant identity, the
// per-subscription replay rings, and the bridge goroutines feeding them from
// the runtime bus. A core is bound to at most one live connection at a time
// but outlives any of them — after a disconnect it lingers for the server's
// resume window so a reconnecting client can re-attach by session token and
// replay its missed tail.
type sessionCore struct {
	srv    *Server
	token  string
	tenant *tenantState
	prefix string

	mu       sync.Mutex
	subs     map[uint64]*subState
	attached *session    // current connection, nil while parked
	reap     *time.Timer // pending expiry while parked
	parkedAt time.Time   // when the core last parked (eviction order)
	retired  bool

	bridges sync.WaitGroup
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
		srv:      s,
		token:    randomToken(),
		tenant:   ts,
		prefix:   prefix,
		subs:     make(map[uint64]*subState),
		attached: ss,
	}
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
	prev := c.attached
	c.attached = ss
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
	if c.attached != ss || c.retired {
		c.mu.Unlock()
		return
	}
	c.attached = nil
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
	c.srv.enforceParkCaps(c.tenant)
}

// retireIf tears the core down exactly once: every runtime subscription is
// cancelled (ending its bridge), the token is dropped, and the bridges are
// awaited. With onlyIfDetached it is the reap path, which must lose the race
// against a resume that re-attached the core. It reports whether this call
// performed the retire.
func (c *sessionCore) retireIf(onlyIfDetached bool) bool {
	c.mu.Lock()
	if c.retired || (onlyIfDetached && c.attached != nil) {
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
		st.sub.Cancel()
	}
	c.srv.dropCore(c.token)
	c.bridges.Wait()
	return true
}

// addSub installs a subscription ring and starts its bridge. dup reports an
// id collision; ok is false when the core has been retired. query is the
// resolved runtime query name, recorded so a spilled session can re-subscribe
// in the adopting process.
func (c *sessionCore) addSub(id uint64, query string, sub *runtime.Subscription) (ok, dup bool) {
	c.mu.Lock()
	if c.retired {
		c.mu.Unlock()
		return false, false
	}
	if _, exists := c.subs[id]; exists {
		c.mu.Unlock()
		return false, true
	}
	st := newSubState(id, query, sub, c.srv.replayBuffer())
	c.subs[id] = st
	c.bridges.Add(1)
	c.mu.Unlock()
	go c.bridge(st)
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
	st.sub.Cancel()
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
		st.sub.Cancel()
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, replay
}

// notify wakes the writer of whatever session is currently attached.
func (c *sessionCore) notify() {
	c.mu.Lock()
	ss := c.attached
	c.mu.Unlock()
	if ss != nil {
		ss.kick()
	}
}

// bridge moves one runtime subscription's answers into its replay ring. It
// never blocks: ring overflow evicts (and is counted against the tenant), so
// a slow connection only ever costs itself. Everything the subscription
// already holds is moved before the writer is woken, so a burst published
// together is swept — and written — together.
func (c *sessionCore) bridge(st *subState) {
	defer c.bridges.Done()
	ch := st.sub.C()
	for a := range ch {
		c.forward(st, a)
		// This goroutine is ch's only receiver, so the len(ch) answers
		// buffered right now can be received without blocking.
		for n := len(ch); n > 0; n-- {
			if a, ok := <-ch; ok {
				c.forward(st, a)
			}
		}
		c.notify()
	}
}

// forward pushes one runtime answer into the ring in its wire form. Answers
// from other tenants' streams are filtered here — this is the isolation
// boundary for shared and subscribe-all queries — and namespace prefixes are
// stripped before the wire.
func (c *sessionCore) forward(st *subState, a runtime.Answer) {
	stream, ok := strings.CutPrefix(a.Stream, c.prefix)
	if !ok {
		return
	}
	query := a.Query
	if cut, ok := strings.CutPrefix(query, c.prefix); ok {
		query = cut
	} else if strings.ContainsRune(query, namespaceDelim) {
		// Another tenant's registered query, evaluated over this tenant's
		// stream by the shared runtime: neither side may see the cross
		// product, so it is filtered on both bridges.
		return
	}
	wa := wire.Answer{
		Stream:           stream,
		Query:            query,
		Epoch:            uint64(a.Epoch),
		WindowIndex:      uint64(a.WindowIndex),
		Start:            int64(a.Window.Start),
		End:              int64(a.Window.End),
		Detected:         a.Detected,
		Suppressed:       a.Suppressed,
		SpentEpsilon:     float64(a.SpentEpsilon),
		RemainingEpsilon: float64(a.RemainingEpsilon),
		TraceNanos:       a.TraceNanos,
	}
	if st.push(wa) {
		c.tenant.answersDropped.Inc()
	}
}
