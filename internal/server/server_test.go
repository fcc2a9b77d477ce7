package server

import (
	"errors"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/dp"
	"patterndp/internal/event"
	"patterndp/internal/runtime"
	"patterndp/internal/wire"
)

// newTestRuntime builds a small serving runtime: two shards, tumbling
// windows of width 10, one private type seq(a, b), one shared query "probe"
// detecting it, and optionally a per-stream budget grant. Each tune edits the
// config before the runtime is built.
func newTestRuntime(t testing.TB, budget float64, tune ...func(*runtime.Config)) *runtime.Runtime {
	t.Helper()
	pt, err := core.NewPatternType("secret", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	q, err := cep.ParseQuery("probe", "SEQ(a, b) WITHIN 10", 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runtime.Config{
		Shards:      2,
		WindowWidth: 10,
		MechanismFor: func(_ int, private []core.PatternType) (core.Mechanism, error) {
			return core.NewUniformPPM(dp.Epsilon(4), private...)
		},
		Private: []core.PatternType{pt},
		Targets: []cep.Query{q},
		Seed:    1,
		Budget:  dp.Epsilon(budget),
	}
	for _, f := range tune {
		f(&cfg)
	}
	rt, err := runtime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// startServer runs a Server over a memory listener and returns a dialer.
func startServer(t testing.TB, rt *runtime.Runtime, cfg Config) (*Server, *MemListener) {
	t.Helper()
	cfg.Runtime = rt
	if cfg.Auth == nil {
		cfg.Auth = TokenAuth(0)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := NewMemListener()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Serve(l)
	}()
	t.Cleanup(func() {
		s.Close()
		<-done
	})
	return s, l
}

func dialTenant(t testing.TB, l *MemListener, token string) *Client {
	t.Helper()
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := connectOver(conn, token)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// connectOver runs the handshake over an established conn: Connect with a
// one-shot Dialer. On success the Client owns conn; it does not reconnect.
func connectOver(conn net.Conn, token string) (*Client, error) {
	return Connect(ClientConfig{Token: token, Dialer: func() (net.Conn, error) { return conn, nil }})
}

// windowEvents is one window's worth of events for a stream: an (a, b) pair
// so "probe" has something to detect, then a closer event past the boundary.
func windowEvents(stream string, winIdx int64) []event.Event {
	base := winIdx * 10
	return []event.Event{
		event.New("a", event.Timestamp(base+1)).WithSource(stream),
		event.New("b", event.Timestamp(base+2)).WithSource(stream),
	}
}

func TestHandshake(t *testing.T) {
	rt := newTestRuntime(t, 5)
	defer rt.Close()
	_, l := startServer(t, rt, Config{})

	c := dialTenant(t, l, "alice")
	w := c.Welcome()
	if w.Tenant != "alice" {
		t.Errorf("tenant = %q", w.Tenant)
	}
	if w.Shards != 2 {
		t.Errorf("shards = %d", w.Shards)
	}
	if w.Grant != 5 {
		t.Errorf("grant = %g", w.Grant)
	}
	if len(w.Queries) != 1 || w.Queries[0] != "probe" {
		t.Errorf("shared queries = %v", w.Queries)
	}
}

func TestAuthRejected(t *testing.T) {
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	s, l := startServer(t, rt, Config{})

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	_, err = connectOver(conn, "bad/tenant")
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeAuth {
		t.Fatalf("want CodeAuth, got %v", err)
	}
	if s.Stats().AuthFailures != 1 {
		t.Errorf("auth failures = %d", s.Stats().AuthFailures)
	}
}

func TestIngestSubscribeAnswer(t *testing.T) {
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	_, l := startServer(t, rt, Config{})
	c := dialTenant(t, l, "alice")

	sub, err := c.Subscribe("probe", 16)
	if err != nil {
		t.Fatal(err)
	}
	// Two windows: the second's events close the first.
	for w := int64(0); w < 2; w++ {
		n, err := c.Ingest(windowEvents("s1", w))
		if err != nil {
			t.Fatal(err)
		}
		if n != 2 {
			t.Errorf("acked %d events", n)
		}
	}
	select {
	case a := <-sub.C:
		if a.Stream != "s1" {
			t.Errorf("answer stream = %q (namespace prefix must be stripped)", a.Stream)
		}
		if a.Query != "probe" {
			t.Errorf("answer query = %q", a.Query)
		}
		if a.Sub != sub.id {
			t.Errorf("answer sub = %d, want %d", a.Sub, sub.id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no answer within 5s")
	}
	if err := c.Unsubscribe(sub); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-sub.C; ok {
		// Draining any answer buffered before the unsubscribe is fine; the
		// channel must close eventually.
		for range sub.C {
		}
	}
}

func TestSubscribeUnknownQuery(t *testing.T) {
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	_, l := startServer(t, rt, Config{})
	c := dialTenant(t, l, "alice")

	_, err := c.Subscribe("no-such-query", 1)
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeUnknownQuery {
		t.Fatalf("want CodeUnknownQuery, got %v", err)
	}
}

// TestEveryQueryIsShared pins what a query name means on the wire: every
// query is the server's, set in process, and a name means the same
// query to every tenant, a delimited name included. What a tenant receives
// from it is still only its own streams' answers.
func TestEveryQueryIsShared(t *testing.T) {
	rt := newTestRuntime(t, 0, func(cfg *runtime.Config) {
		cfg.Targets = append(cfg.Targets, cep.Query{Name: "ops/probe", Pattern: cep.E("a"), Window: 10})
	})
	defer rt.Close()
	_, l := startServer(t, rt, Config{})
	alice := dialTenant(t, l, "alice")
	bob := dialTenant(t, l, "bob")
	var subs []*ClientSub
	for _, c := range []*Client{alice, bob} {
		if got := slices.Sorted(slices.Values(c.Welcome().Queries)); !slices.Equal(got, []string{"ops/probe", "probe"}) {
			t.Errorf("%s: welcome lists %v, want ops/probe and probe", c.Welcome().Tenant, got)
		}
		sub, err := c.Subscribe("ops/probe", 16)
		if err != nil {
			t.Fatalf("%s: subscribe ops/probe: %v", c.Welcome().Tenant, err)
		}
		subs = append(subs, sub)
	}
	for w := int64(0); w < 3; w++ {
		if _, err := alice.Ingest(windowEvents("s1", w)); err != nil {
			t.Fatal(err)
		}
	}
	// Alice's answers reached every ring before her last Ack; an empty
	// ingest's Ack leaves behind whatever bob's rings hold.
	if _, err := bob.Ingest(nil); err != nil {
		t.Fatal(err)
	}
	if got := len(subs[1].C); got != 0 {
		t.Errorf("bob received %d of alice's answers", got)
	}
	for i := 0; i < 2; i++ {
		if a := recvAnswer(t, subs[0].C); a.Query != "ops/probe" || a.Stream != "s1" {
			t.Errorf("alice's answer %d: %+v", i, a)
		}
	}
}

// TestRegistrationFramesRefused pins the retired registration frame types:
// tenants cannot change the control plane over the wire, so a frame of type 8
// or 9 is a protocol error that ends the session and registers nothing.
func TestRegistrationFramesRefused(t *testing.T) {
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	_, l := startServer(t, rt, Config{})
	for _, typ := range []wire.Type{8, 9} {
		conn, err := l.Dial()
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_, r, err := handshake(conn, "alice")
		if err != nil {
			t.Fatal(err)
		}
		// Req 1, name "mine", then one element "a", as a registration read.
		payload := []byte{0x01, 0x04, 'm', 'i', 'n', 'e', 0x01, 0x01, 'a'}
		if err := wire.WriteFrame(conn, typ, payload); err != nil {
			t.Fatal(err)
		}
		f, err := r.Next()
		if err != nil || f.Type != wire.TError {
			t.Fatalf("reply to a type-%d frame: %v, %v; want an error frame", typ, f.Type, err)
		}
		if we, err := wire.DecodeError(f.Payload); err != nil || we.Code != wire.CodeProto || we.Req != 0 {
			t.Fatalf("type-%d frame refused with %+v (%v), want a connection-level CodeProto", typ, we, err)
		}
		if f, err := r.Next(); err == nil {
			t.Fatalf("session kept going after a type-%d frame: read a %v frame", typ, f.Type)
		}
	}
	if qs := rt.Queries(); len(qs) != 1 || qs[0].Name != "probe" {
		t.Errorf("queries after the refused frames: %v", qs)
	}
}

func TestStreamQuota(t *testing.T) {
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	_, l := startServer(t, rt, Config{Auth: TokenAuth(2)})
	c := dialTenant(t, l, "alice")

	for _, s := range []string{"s1", "s2"} {
		if _, err := c.Ingest(windowEvents(s, 0)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.Ingest(windowEvents("s3", 0))
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeQuota {
		t.Fatalf("want CodeQuota, got %v", err)
	}
	// Known streams keep flowing after the cap is hit.
	if _, err := c.Ingest(windowEvents("s1", 1)); err != nil {
		t.Fatal(err)
	}
}

func TestDrainRejectsIngest(t *testing.T) {
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	s, l := startServer(t, rt, Config{})
	c := dialTenant(t, l, "alice")

	if _, err := c.Ingest(windowEvents("s1", 0)); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	select {
	case g := <-c.Goodbye:
		if g.Reason != "drain" {
			t.Errorf("goodbye reason = %q", g.Reason)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no goodbye within 5s")
	}
	_, err := c.Ingest(windowEvents("s1", 1))
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeDraining {
		t.Fatalf("want CodeDraining, got %v", err)
	}
	// New connections are refused outright.
	if _, err := l.Dial(); err == nil {
		t.Fatal("dial succeeded after drain")
	}
}

// TestIngestRetiredEventFlagsRefused sends an ingest frame whose event an
// older encoder wrote with attributes (flag 0x04): the server refuses it with
// CodeProto and admits nothing.
func TestIngestRetiredEventFlagsRefused(t *testing.T) {
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	_, l := startServer(t, rt, Config{})
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, r, err := handshake(conn, "alice")
	if err != nil {
		t.Fatal(err)
	}
	// Req 1, one event: a@1 with attrs {k: 7}.
	payload := []byte{0x01, 0x01, 0x04, 0x01, 'a', 0x02, 0x01, 0x01, 'k', 0x01, 0x0e}
	if err := wire.WriteFrame(conn, wire.TIngest, payload); err != nil {
		t.Fatal(err)
	}
	f, err := r.Next()
	if err != nil || f.Type != wire.TError {
		t.Fatalf("reply to a retired-flag ingest: %v, %v; want an error frame", f.Type, err)
	}
	if we, err := wire.DecodeError(f.Payload); err != nil || we.Code != wire.CodeProto {
		t.Fatalf("error frame %+v (%v), want CodeProto", we, err)
	}
	if in := rt.Snapshot().Totals().EventsIn; in != 0 {
		t.Errorf("runtime admitted %d events", in)
	}
}

func TestSessionCloseReleasesSubscriptions(t *testing.T) {
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	_, l := startServer(t, rt, Config{})

	before := rt.Snapshot().Subscriptions
	c := dialTenant(t, l, "alice")
	if _, err := c.Subscribe("probe", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("", 1); err != nil {
		t.Fatal(err)
	}
	if got := rt.Snapshot().Subscriptions; got != before+2 {
		t.Fatalf("open subscriptions = %d, want %d", got, before+2)
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for rt.Snapshot().Subscriptions != before {
		if time.Now().After(deadline) {
			t.Fatalf("subscriptions leaked: %d left", rt.Snapshot().Subscriptions-before)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTenantIsolation(t *testing.T) {
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	_, l := startServer(t, rt, Config{})
	alice := dialTenant(t, l, "alice")
	bob := dialTenant(t, l, "bob")

	// Both subscribe to everything; both ingest a stream named "shared".
	subA, err := alice.Subscribe("", 64)
	if err != nil {
		t.Fatal(err)
	}
	subB, err := bob.Subscribe("", 64)
	if err != nil {
		t.Fatal(err)
	}
	for w := int64(0); w < 3; w++ {
		if _, err := alice.Ingest(windowEvents("shared", w)); err != nil {
			t.Fatal(err)
		}
		if _, err := bob.Ingest(windowEvents("shared", w)); err != nil {
			t.Fatal(err)
		}
	}
	// Each side must see only its own answers, under the bare stream name.
	check := func(name string, c <-chan wire.Answer) {
		select {
		case a := <-c:
			if a.Stream != "shared" {
				t.Errorf("%s saw stream %q", name, a.Stream)
			}
			if strings.ContainsRune(a.Stream, '/') || strings.ContainsRune(a.Query, '/') {
				t.Errorf("%s saw namespaced name: %q %q", name, a.Stream, a.Query)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s got no answer within 5s", name)
		}
	}
	check("alice", subA.C)
	check("bob", subB.C)
}

func TestStatsPerTenantSpend(t *testing.T) {
	// A grant the test's three releases per tenant do not exhaust, so the
	// spend shows whether the last one has been charged.
	rt := newTestRuntime(t, 16)
	defer rt.Close()
	s, l := startServer(t, rt, Config{})
	alice := dialTenant(t, l, "alice")
	bob := dialTenant(t, l, "bob")

	var wg sync.WaitGroup
	for _, c := range []*Client{alice, bob} {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			name := c.Welcome().Tenant
			for w := int64(0); w < 4; w++ {
				// Padded with events no query reads, so serving a batch takes
				// longer than its Ack's trip to the client.
				evs := windowEvents("s1", w)
				for i := 0; i < 2000; i++ {
					evs = append(evs, event.New("c", event.Timestamp(w*10+3)).WithSource("s1"))
				}
				if _, err := c.Ingest(evs); err != nil {
					t.Error(err)
					return
				}
				// An ingest is acked once served: the windows it closed, at
				// ε = 4 each, are charged by the time Ingest returns.
				if spent := tenantStats(t, s, name).Spend.Spent; spent != dp.Epsilon(4*w) {
					t.Errorf("%s: spend %v after window %d was acked, want %v", name, spent, w, 4*w)
				}
			}
		}(c)
	}
	wg.Wait()
	st := s.Stats()
	if len(st.Tenants) != 2 || st.Tenants[0].Tenant != "alice" || st.Tenants[1].Tenant != "bob" {
		t.Fatalf("tenants = %+v", st.Tenants)
	}
	for _, ts := range st.Tenants {
		if ts.Spend.Streams != 1 {
			t.Errorf("%s: spend %+v, want one stream", ts.Tenant, ts.Spend)
		}
	}
}
