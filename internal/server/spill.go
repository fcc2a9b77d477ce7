package server

import (
	"fmt"
	"log/slog"
	"sort"
	"time"

	"patterndp/internal/durable"
	"patterndp/internal/wire"
)

// Session spill: exporting parked session cores at the end of a drain, and
// adopting them in the next process, so a client's Resume token survives the
// process it was minted by. The spill rides in the same durable directory as
// the WAL and checkpoints and is shipped to a peer with the rest of the
// directory by SendHandoff. Spill and Adopt are the whole sequence; the file
// format is internal/durable's.

// export captures one subscription's replay state. The ring must be
// quiescent: call only after Runtime.Freeze (or Close) has returned — no shard
// is alive then, so no Deliver is in flight and none follows.
func (st *subState) export() durable.SessionSub {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := durable.SessionSub{ID: st.id, Query: st.query, Head: st.head, Cursor: st.cursor}
	if st.head > 0 {
		from := st.oldest()
		out.RingStart = from
		out.Ring = make([][]byte, 0, st.head-from+1)
		for s := from; s <= st.head; s++ {
			out.Ring = append(out.Ring, wire.AppendAnswer(nil, *st.slot(s)))
		}
	}
	return out
}

// Spill writes every live session core — parked or still formally attached
// (its client will reconnect against the next process) — as dir's session
// spill, replacing any previous one, and returns how many it wrote. It always
// writes, even an empty spill, so a stale spill never outlives the drain that
// superseded it; the next Adopt removes it. Call after DrainForHandoff and
// Runtime.CloseContext or Runtime.Freeze have returned: with the shards gone
// nothing delivers into the rings, and with the sessions closed nothing pops
// them, so they are quiescent by construction.
func (s *Server) Spill(dir string) (int, error) {
	sp := s.exportSessions()
	return len(sp.Sessions), durable.WriteSessions(durable.OS, dir, sp)
}

// Adopt reads dir's session spill, adopts its sessions (importSessions) and
// removes the spill, returning how many sessions were adopted. A missing
// spill is (0, nil); an unreadable one is left in place and returned as an
// error, and its clients fall back to a fresh handshake.
func (s *Server) Adopt(dir string) (int, error) {
	sp, err := durable.ReadSessions(dir)
	if err != nil || sp == nil {
		return 0, err
	}
	return s.importSessions(sp), durable.RemoveSessions(dir)
}

// exportSessions snapshots every live session core for Spill.
func (s *Server) exportSessions() *durable.SessionSpill {
	sp := &durable.SessionSpill{}
	for _, c := range s.coreList() {
		c.mu.Lock()
		if c.retired || len(c.subs) == 0 {
			c.mu.Unlock()
			continue
		}
		parkedAt := c.parkedAt
		if parkedAt.IsZero() {
			parkedAt = time.Now()
		}
		rec := durable.SessionRecord{
			Token:          c.token,
			Tenant:         c.tenant.tenant.ID,
			ParkedAtMillis: parkedAt.UnixMilli(),
		}
		for _, st := range c.subs {
			rec.Subs = append(rec.Subs, st.export())
		}
		c.mu.Unlock()
		sort.Slice(rec.Subs, func(i, j int) bool { return rec.Subs[i].ID < rec.Subs[j].ID })
		sp.Sessions = append(sp.Sessions, rec)
	}
	sort.Slice(sp.Sessions, func(i, j int) bool { return sp.Sessions[i].Token < sp.Sessions[j].Token })
	return sp
}

// importSessions adopts a spill: each record becomes a parked core
// under its original token, re-subscribed to its queries against this
// server's (recovered) runtime, with its replay ring reseeded — so a client
// that last spoke to the old process can Resume here and pick up its seq
// space where it left off. Ring entries that no longer fit (or subs whose
// query did not survive the restart) degrade to an explicit Gap or a
// re-subscribe, never silent loss. The resume window restarts at import.
// It returns how many sessions were adopted.
func (s *Server) importSessions(sp *durable.SessionSpill) int {
	window := s.resumeWindow()
	if window <= 0 {
		return 0
	}
	adopted := 0
	for _, rec := range sp.Sessions {
		if err := s.importSession(rec, window); err != nil {
			slog.Warn("server: import session", "token", fmt.Sprintf("%.8s", rec.Token), "tenant", rec.Tenant, "err", err)
			continue
		}
		adopted++
		s.coresImported.Inc()
	}
	return adopted
}

func (s *Server) importSession(rec durable.SessionRecord, window time.Duration) error {
	if rec.Token == "" || rec.Tenant == "" {
		return fmt.Errorf("malformed record")
	}
	// Resolve the tenant through Auth where possible so caps (MaxStreams)
	// match what a fresh handshake would grant; fall back to a bare identity
	// for auth schemes whose tokens are not tenant ids.
	t, err := s.cfg.Auth(rec.Tenant)
	if err != nil || t.ID != rec.Tenant {
		t = Tenant{ID: rec.Tenant}
	}
	ts := s.tenantFor(t)
	c := &sessionCore{
		srv:      s,
		token:    rec.Token,
		tenant:   ts,
		prefix:   rec.Tenant + string(namespaceDelim),
		subs:     make(map[uint64]*subState),
		parkedAt: time.UnixMilli(rec.ParkedAtMillis),
	}
	for _, sub := range rec.Subs {
		st, err := c.importSub(sub)
		if err != nil {
			slog.Warn("server: import session sub", "token", fmt.Sprintf("%.8s", rec.Token), "sub", sub.ID, "query", sub.Query, "err", err)
			continue
		}
		c.subs[sub.ID] = st
	}
	if len(c.subs) == 0 {
		return fmt.Errorf("no subscriptions survived import")
	}
	s.mu.Lock()
	if _, taken := s.cores[c.token]; taken {
		s.mu.Unlock()
		for _, st := range c.subs {
			st.detach()
		}
		return fmt.Errorf("token already live")
	}
	s.cores[c.token] = c
	s.mu.Unlock()
	c.mu.Lock()
	c.reap = time.AfterFunc(window, func() {
		c.srv.coresExpired.Inc()
		c.retireIf(true)
	})
	c.mu.Unlock()
	s.enforceParkCap()
	return nil
}

// importSub rebuilds one subscription ring from its spilled state — the seq
// space resumed at the recorded head, and as much of the retained tail as the
// ring holds — and only then attaches it to the runtime under the recorded
// query name: answers may arrive the instant it is attached, and must land
// behind the restored head. A spilled entry that fails to decode truncates
// the replayable range below it (base moves past it), surfacing as a Gap.
func (c *sessionCore) importSub(sub durable.SessionSub) (*subState, error) {
	st := newSubState(c, sub.ID, sub.Query)
	st.reseed(sub)
	if err := st.attach(); err != nil {
		return nil, err
	}
	return st, nil
}

// reseed restores a fresh, unattached ring from its spilled state, allocating
// storage only for the entries it restores.
func (st *subState) reseed(sub durable.SessionSub) {
	st.head = sub.Head
	st.cursor = min(max(sub.Cursor, 1), sub.Head+1)
	st.base = sub.Head + 1 // nothing replayable until entries land below
	n := st.size
	lo := sub.RingStart
	if len(sub.Ring) == 0 || sub.Head == 0 {
		return
	}
	if hi := lo + uint64(len(sub.Ring)) - 1; hi != sub.Head || lo == 0 || lo > sub.Head {
		return // inconsistent spill: keep the sub, drop the tail
	}
	if floor := sub.Head + 1 - min(n, sub.Head); lo < floor {
		lo = floor // older entries than the ring holds: they gap
	}
	base := lo
	for seq := lo; seq <= sub.Head; seq++ {
		a, err := wire.DecodeAnswer(sub.Ring[seq-sub.RingStart])
		if err != nil {
			base = seq + 1
			continue
		}
		*st.slot(seq) = a
	}
	st.base = base
}
