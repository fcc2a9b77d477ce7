package server

import (
	"errors"
	"testing"
	"time"

	"patterndp/internal/event"
	"patterndp/internal/wire"
)

// parkClient connects, subscribes (so the core has replay state worth
// parking), then cuts the transport abruptly and waits for the server to
// park the core. It returns the session token.
func parkClient(t *testing.T, s *Server, l *MemListener, token string) string {
	t.Helper()
	g := newGatedDialer(l)
	c, err := Connect(ClientConfig{Token: token, Dialer: g.dial})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.Subscribe("probe", 8); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().SessionsParked
	g.cut()
	waitFor(t, 5*time.Second, "session to park", func() bool {
		st := s.Stats()
		return st.SessionsParked > before || st.SessionsEvicted > 0
	})
	return c.Session()
}

// TestParkedSessionCapGlobal caps parked sessions server-wide: parking one
// more evicts the longest-parked core, whose token then resolves to nothing.
func TestParkedSessionCapGlobal(t *testing.T) {
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	s, l := startServer(t, rt, Config{
		ResumeWindow:      time.Minute,
		MaxParkedSessions: 2,
	})

	first := parkClient(t, s, l, "alice")
	second := parkClient(t, s, l, "alice")
	third := parkClient(t, s, l, "alice")

	waitFor(t, 5*time.Second, "oldest parked session to be evicted", func() bool {
		return s.Stats().SessionsEvicted == 1
	})
	st := s.Stats()
	if st.SessionsParked != 2 {
		t.Errorf("parked = %d, want 2", st.SessionsParked)
	}
	if s.lookupCore(first) != nil {
		t.Error("oldest core survived eviction")
	}
	if s.lookupCore(second) == nil || s.lookupCore(third) == nil {
		t.Error("a newer core was evicted instead of the oldest")
	}
	if ts := tenantStats(t, s, "alice"); ts.SessionsEvicted != 1 {
		t.Errorf("tenant evictions = %d, want 1", ts.SessionsEvicted)
	}
}

// TestRateLimitThrottles exercises the per-tenant ingest token bucket: a
// batch that drives the bucket into debt is admitted (no partial admission),
// the next is refused with CodeThrottled and a retry-after hint, and waiting
// that long restores service.
func TestRateLimitThrottles(t *testing.T) {
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	s, l := startServer(t, rt, Config{RateLimit: 100})
	c := dialTenant(t, l, "alice")

	// 150 events against a 100-token burst: admitted, bucket now in debt.
	big := make([]event.Event, 0, 150)
	for w := int64(0); len(big) < 150; w++ {
		big = append(big, windowEvents("s1", w)...)
	}
	big = big[:150]
	if _, err := c.Ingest(big); err != nil {
		t.Fatalf("burst within debt allowance refused: %v", err)
	}

	_, err := c.Ingest(windowEvents("s1", 100))
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeThrottled {
		t.Fatalf("ingest into debt: err = %v, want CodeThrottled", err)
	}
	if re.RetryAfterMillis == 0 {
		t.Fatal("throttle refusal carried no retry-after hint")
	}
	if ts := tenantStats(t, s, "alice"); ts.Throttled != 1 {
		t.Errorf("throttled = %d, want 1", ts.Throttled)
	}

	// The hint is honest: waiting it out restores service.
	time.Sleep(time.Duration(re.RetryAfterMillis)*time.Millisecond + 100*time.Millisecond)
	if _, err := c.Ingest(windowEvents("s1", 100)); err != nil {
		t.Fatalf("ingest after retry-after still refused: %v", err)
	}
	// Nothing was partially admitted: 150 + 2 events total.
	if ts := tenantStats(t, s, "alice"); ts.EventsIn != 152 {
		t.Errorf("events in = %d, want 152", ts.EventsIn)
	}
}

// TestRateLimitIsPerTenant checks one tenant's debt never throttles another.
func TestRateLimitIsPerTenant(t *testing.T) {
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	_, l := startServer(t, rt, Config{RateLimit: 100})
	alice := dialTenant(t, l, "alice")
	bob := dialTenant(t, l, "bob")

	big := make([]event.Event, 0, 150)
	for w := int64(0); len(big) < 150; w++ {
		big = append(big, windowEvents("s1", w)...)
	}
	if _, err := alice.Ingest(big[:150]); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Ingest(windowEvents("s1", 100)); err == nil {
		t.Fatal("alice's debt not throttled")
	}
	if _, err := bob.Ingest(windowEvents("s1", 0)); err != nil {
		t.Fatalf("bob throttled by alice's debt: %v", err)
	}
}
