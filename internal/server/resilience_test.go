package server

import (
	"net"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"patterndp/internal/wire"
)

// gatedDialer dials through a MemListener; after the first connection every
// attempt blocks until release. It records the latest conn so tests can cut
// it abruptly (no Goodbye — the server sees a disorderly disconnect).
type gatedDialer struct {
	l *MemListener

	mu       sync.Mutex
	dials    int
	gate     chan struct{}
	lastConn net.Conn
}

func newGatedDialer(l *MemListener) *gatedDialer {
	return &gatedDialer{l: l, gate: make(chan struct{})}
}

func (g *gatedDialer) dial() (net.Conn, error) {
	g.mu.Lock()
	n := g.dials
	g.dials++
	gate := g.gate
	g.mu.Unlock()
	if n > 0 {
		<-gate
	}
	conn, err := g.l.Dial()
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	g.lastConn = conn
	g.mu.Unlock()
	return conn, nil
}

// cut abruptly closes the current transport.
func (g *gatedDialer) cut() {
	g.mu.Lock()
	conn := g.lastConn
	g.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

func (g *gatedDialer) release() {
	g.mu.Lock()
	close(g.gate)
	g.mu.Unlock()
}

func tenantStats(t *testing.T, s *Server, tenant string) TenantStats {
	t.Helper()
	for _, ts := range s.Stats().Tenants {
		if ts.Tenant == tenant {
			return ts
		}
	}
	return TenantStats{}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestResumeReplaysMissedTail drops the transport mid-subscription, produces
// answers while the client is away, and checks the resumed session replays
// exactly the missed tail: sequence numbers stay contiguous with no
// duplicates and no gap markers.
func TestResumeReplaysMissedTail(t *testing.T) {
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	s, l := startServer(t, rt, Config{})
	g := newGatedDialer(l)

	c, err := Connect(ClientConfig{
		Token: "alice", Dialer: g.dial,
		Reconnect: true, BackoffMin: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	feeder := dialTenant(t, l, "alice")

	sub, err := c.Subscribe("probe", 64)
	if err != nil {
		t.Fatal(err)
	}
	// First answer arrives live.
	if _, err := feeder.Ingest(windowEvents("s1", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := feeder.Ingest(windowEvents("s1", 1)); err != nil {
		t.Fatal(err)
	}
	first := <-sub.C
	if first.Seq != 1 {
		t.Fatalf("first answer seq = %d, want 1", first.Seq)
	}

	// Drop the transport; the server must park the session, not retire it.
	g.cut()
	waitFor(t, 5*time.Second, "session to park", func() bool {
		return s.Stats().SessionsParked == 1
	})

	// Produce answers into the parked replay ring: an ingest is acked once
	// served, so its answers are in the ring when Ingest returns.
	for w := int64(2); w <= 4; w++ {
		if _, err := feeder.Ingest(windowEvents("s1", w)); err != nil {
			t.Fatal(err)
		}
	}
	if dropped, emitted := tenantStats(t, s, "alice").AnswersDropped, rt.Snapshot().Totals().AnswersEmitted; dropped != 0 || emitted != 4 {
		t.Fatalf("after the acks: %d answers dropped and %d emitted, want 0 and 4", dropped, emitted)
	}

	// Let the reconnect through and read the replayed tail.
	g.release()
	seen := map[uint64]bool{1: true}
	for len(seen) < 4 {
		select {
		case a := <-sub.C:
			if a.Gap {
				t.Fatalf("unexpected gap marker %+v (ring should hold the whole tail)", a)
			}
			if seen[a.Seq] {
				t.Fatalf("duplicate seq %d delivered", a.Seq)
			}
			seen[a.Seq] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out with %d/4 answers", len(seen))
		}
	}
	for q := uint64(1); q <= 4; q++ {
		if !seen[q] {
			t.Errorf("seq %d never delivered", q)
		}
	}
	if c.Reconnects() != 1 {
		t.Errorf("reconnects = %d, want 1", c.Reconnects())
	}
	ts := tenantStats(t, s, "alice")
	if ts.Resumes != 1 {
		t.Errorf("tenant resumes = %d, want 1", ts.Resumes)
	}
	if ts.AnswersReplayed == 0 {
		t.Error("tenant replayed-answer count is zero after a resume with backlog")
	}
}

// TestResumeGapOnRingOverflow overflows a tiny replay ring while the client
// is away and checks the resumed session degrades explicitly: one gap marker
// covering exactly the evicted range, then the surviving tail, tiling the
// sequence space with no silent loss.
func TestResumeGapOnRingOverflow(t *testing.T) {
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	s, l := startServer(t, rt, Config{ReplayBuffer: 2})
	g := newGatedDialer(l)

	c, err := Connect(ClientConfig{
		Token: "alice", Dialer: g.dial,
		Reconnect: true, BackoffMin: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	feeder := dialTenant(t, l, "alice")

	sub, err := c.Subscribe("probe", 64)
	if err != nil {
		t.Fatal(err)
	}
	g.cut()
	waitFor(t, 5*time.Second, "session to park", func() bool {
		return s.Stats().SessionsParked == 1
	})

	// Six closed windows against a ring of two: seqs 1..4 evict, all by the
	// time the last ingest is acked.
	for w := int64(0); w <= 6; w++ {
		if _, err := feeder.Ingest(windowEvents("s1", w)); err != nil {
			t.Fatal(err)
		}
	}
	if dropped := tenantStats(t, s, "alice").AnswersDropped; dropped != 4 {
		t.Fatalf("after the acks: %d answers dropped, want 4", dropped)
	}

	g.release()
	covered := map[uint64]bool{}
	var gaps int
	for len(covered) < 6 {
		select {
		case a := <-sub.C:
			if a.Gap {
				gaps++
				if a.GapFrom != 1 {
					t.Errorf("gap starts at %d, want 1", a.GapFrom)
				}
				for q := a.GapFrom; q <= a.Seq; q++ {
					if covered[q] {
						t.Fatalf("seq %d delivered and then declared lost", q)
					}
					covered[q] = true
				}
				continue
			}
			if covered[a.Seq] {
				t.Fatalf("duplicate seq %d", a.Seq)
			}
			covered[a.Seq] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out with %d/6 seqs covered", len(covered))
		}
	}
	if gaps != 1 {
		t.Errorf("gap markers = %d, want exactly 1", gaps)
	}
	for q := uint64(1); q <= 6; q++ {
		if !covered[q] {
			t.Errorf("seq %d neither delivered nor declared lost", q)
		}
	}
	// The writer credits a flush's counters after the write returns, so the
	// marker can reach the client before it is counted.
	waitFor(t, 5*time.Second, "the gap marker to be counted", func() bool {
		return tenantStats(t, s, "alice").GapsSent == 1
	})
}

// TestResumeWindowExpiry parks a session past its resume window and checks
// the late reconnect degrades explicitly: a fresh session, a synthetic gap
// marker of unknown extent (Seq 0), and a restarted sequence space.
func TestResumeWindowExpiry(t *testing.T) {
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	s, l := startServer(t, rt, Config{ResumeWindow: 30 * time.Millisecond})
	g := newGatedDialer(l)

	c, err := Connect(ClientConfig{
		Token: "alice", Dialer: g.dial,
		Reconnect: true, BackoffMin: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	oldSession := c.Session()
	feeder := dialTenant(t, l, "alice")

	sub, err := c.Subscribe("probe", 64)
	if err != nil {
		t.Fatal(err)
	}
	g.cut()
	waitFor(t, 5*time.Second, "parked session to expire", func() bool {
		return s.Stats().SessionsExpired == 1
	})
	g.release()

	// The reconnect lands on a fresh session; the dead subscription is
	// re-established after an explicit unknown-extent gap.
	select {
	case a := <-sub.C:
		if !a.Gap || a.Seq != 0 || a.GapFrom != 1 {
			t.Fatalf("want synthetic gap {Seq 0, GapFrom 1}, got %+v", a)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no synthetic gap marker after expired resume")
	}
	waitFor(t, 5*time.Second, "fresh session token", func() bool {
		return c.Session() != "" && c.Session() != oldSession
	})
	// The client re-subscribes after it adopts the fresh token; an answer
	// published before that lands has no subscriber to go to.
	waitFor(t, 5*time.Second, "the re-subscription to reach the runtime", func() bool {
		return rt.Snapshot().Subscriptions == 1
	})
	for w := int64(0); w < 2; w++ {
		if _, err := feeder.Ingest(windowEvents("s1", w)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case a := <-sub.C:
		if a.Seq != 1 {
			t.Errorf("post-expiry answer seq = %d, want a restarted space (1)", a.Seq)
		}
		if a.Query != "probe" {
			t.Errorf("post-expiry answer query = %q", a.Query)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no answer after re-subscribe")
	}
}

// TestDeadPeerReaped checks the liveness machinery both ways: a handshaked
// peer that goes silent is reaped within two heartbeat intervals, while a
// heartbeating client survives many intervals of application silence.
func TestDeadPeerReaped(t *testing.T) {
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	heartbeat := 50 * time.Millisecond
	s, l := startServer(t, rt, Config{Heartbeat: heartbeat})

	// A live, idle client: heartbeats alone must keep it open.
	c := dialTenant(t, l, "alice")
	if w := c.Welcome(); w.HeartbeatMillis != 50 {
		t.Fatalf("advertised heartbeat = %dms, want 50", w.HeartbeatMillis)
	}

	// A silent peer: handshake, then nothing.
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, _, err := handshake(conn, "mallory"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "both sessions up", func() bool {
		return s.Stats().ConnsOpen == 2
	})

	start := time.Now()
	waitFor(t, 5*time.Second, "silent peer to be reaped", func() bool {
		return tenantStats(t, s, "mallory").Sessions == 0
	})
	// Deadline is 2× heartbeat; allow generous scheduling slack, but the
	// reap must not take an order of magnitude longer.
	if took := time.Since(start); took > 10*heartbeat {
		t.Errorf("silent peer reaped after %v (deadline 2×%v)", took, heartbeat)
	}

	// Six heartbeat intervals later the idle-but-heartbeating client still
	// serves requests.
	time.Sleep(6 * heartbeat)
	if _, err := c.Ingest(windowEvents("s1", 0)); err != nil {
		t.Fatalf("heartbeating client was reaped: %v", err)
	}
}

// TestAbruptResetNoGoroutineLeak hammers the server with mid-subscription
// connection resets and checks every session goroutine (reader and writer)
// unwinds once the resume window lapses.
func TestAbruptResetNoGoroutineLeak(t *testing.T) {
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	s, l := startServer(t, rt, Config{ResumeWindow: 20 * time.Millisecond})

	before := goruntime.NumGoroutine()
	for i := 0; i < 10; i++ {
		conn, err := l.Dial()
		if err != nil {
			t.Fatal(err)
		}
		c, err := connectOver(conn, "alice")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Subscribe("probe", 4); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Ingest(windowEvents("s1", int64(i))); err != nil {
			t.Fatal(err)
		}
		// Abrupt reset mid-subscription: no Goodbye, no drain.
		conn.Close()
	}
	waitFor(t, 10*time.Second, "sessions to unwind", func() bool {
		st := s.Stats()
		return st.ConnsOpen == 0 && st.SessionsParked == 0
	})
	waitFor(t, 10*time.Second, "goroutines to unwind", func() bool {
		goruntime.GC()
		return goruntime.NumGoroutine() <= before+2
	})
}

// TestClientRequestTimeout checks a stalled server surfaces as a bounded
// request error instead of a hung call.
func TestClientRequestTimeout(t *testing.T) {
	l := NewMemListener()
	defer l.Close()
	// A server that completes the handshake and then acknowledges nothing.
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		r := wire.NewReader(conn)
		f, err := r.Next()
		if err != nil || f.Type != wire.THello {
			return
		}
		wire.WriteFrame(conn, wire.TWelcome,
			wire.AppendWelcome(nil, wire.Welcome{Tenant: "alice", Shards: 1, Session: "tok"}))
		for {
			if _, err := r.Next(); err != nil {
				return
			}
		}
	}()

	c, err := Connect(ClientConfig{
		Token:          "alice",
		Dialer:         func() (net.Conn, error) { return l.Dial() },
		RequestTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	_, err = c.Ingest(windowEvents("s1", 0))
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("want request timeout, got %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("timeout surfaced after %v", took)
	}
	// The client remains usable for subsequent calls (no wedged state).
	if got := c.Err(); got != nil {
		t.Errorf("client terminal error after timeout: %v", got)
	}
}
