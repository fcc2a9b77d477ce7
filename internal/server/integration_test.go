package server

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"patterndp/internal/event"
	"patterndp/internal/wire"
)

// TestIntegrationMultiTenant drives the full serving stack over real TCP:
// N tenants connect concurrently, each subscribes to the shared query and to
// every query, and ingests several windows across two streams named alike in
// every tenant. Each tenant must then hold exactly its own answers, so an
// answer leaking across tenants changes a count. Afterwards the test asserts
// no runtime subscription leaked, the ledger attributes spend per tenant,
// and drain shuts everything down cleanly.
func TestIntegrationMultiTenant(t *testing.T) {
	const (
		tenants        = 4
		windowsPerFeed = 5
		// Per subscription: two feeds, each with windowsPerFeed-1 closed
		// windows (the last stays open until drain), and "probe" is the
		// only query, so subscribe-all sees the same answers.
		want = 2 * (windowsPerFeed - 1)
	)
	rt := newTestRuntime(t, 1000)
	defer rt.Close()

	s, err := New(Config{Runtime: rt, Auth: TokenAuth(0)})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		s.Serve(l)
	}()
	defer func() {
		s.Close()
		<-serveDone
	}()
	addr := l.Addr().String()

	type tenantRun struct {
		c          *Client
		probe, all *ClientSub
	}
	runs := make([]tenantRun, tenants)
	defer func() {
		for _, r := range runs {
			if r.c != nil {
				r.c.Close()
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for ti := range runs {
		wg.Add(1)
		go func(r *tenantRun, tenant string) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				errs <- fmt.Errorf("%s: %s", tenant, fmt.Sprintf(format, args...))
			}
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				fail("dial: %v", err)
				return
			}
			if r.c, err = connectOver(conn, tenant); err != nil {
				fail("handshake: %v", err)
				return
			}
			if r.c.Welcome().Tenant != tenant {
				fail("welcome tenant = %q", r.c.Welcome().Tenant)
				return
			}
			// Both channels hold every answer the tenant is owed, so the
			// ingest loop needs no concurrent reader.
			if r.probe, err = r.c.Subscribe("probe", 4*want); err != nil {
				fail("subscribe probe: %v", err)
				return
			}
			if r.all, err = r.c.Subscribe("", 4*want); err != nil {
				fail("subscribe all: %v", err)
				return
			}
			for w := int64(0); w < windowsPerFeed; w++ {
				for _, stream := range []string{"s1", "s2"} {
					if _, err := r.c.Ingest(windowEvents(stream, w)); err != nil {
						fail("ingest: %v", err)
						return
					}
				}
			}
		}(&runs[ti], fmt.Sprintf("tenant-%d", ti))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// Every tenant's batches were served before their Acks, so every answer
	// is in its rings. An empty ingest's Ack leaves behind all a session's
	// rings hold: once it returns, the channels hold all the tenant got.
	for ti, r := range runs {
		if _, err := r.c.Ingest(nil); err != nil {
			t.Fatalf("tenant-%d: sync ingest: %v", ti, err)
		}
		for _, sub := range []struct {
			name string
			sub  *ClientSub
		}{{"probe", r.probe}, {"subscribe-all", r.all}} {
			if got := len(sub.sub.C); got != want {
				t.Errorf("tenant-%d %s: %d answers, want %d", ti, sub.name, got, want)
			}
			perStream := make(map[string]int)
			for seq := uint64(1); len(sub.sub.C) > 0; seq++ {
				a := <-sub.sub.C
				if a.Query != "probe" || a.Seq != seq || a.Gap {
					t.Errorf("tenant-%d %s: answer %+v, want probe seq %d", ti, sub.name, a, seq)
				}
				perStream[a.Stream]++
			}
			if len(perStream) != 2 || perStream["s1"] != want/2 || perStream["s2"] != want/2 {
				t.Errorf("tenant-%d %s: answers per stream %v, want %d on s1 and s2", ti, sub.name, perStream, want/2)
			}
		}
		if err := r.c.Unsubscribe(r.probe); err != nil {
			t.Errorf("tenant-%d: unsubscribe: %v", ti, err)
		}
		r.c.Close()
	}
	if t.Failed() {
		return
	}

	// Per-tenant spend isolation: every tenant's namespace carries its own
	// live spend over exactly its two streams.
	st := s.Stats()
	if len(st.Tenants) != tenants {
		t.Fatalf("tenants in stats = %d, want %d", len(st.Tenants), tenants)
	}
	for _, ts := range st.Tenants {
		if ts.Spend.Streams != 2 {
			t.Errorf("%s: spend over %d streams, want 2", ts.Tenant, ts.Spend.Streams)
		}
		if ts.Spend.Spent <= 0 {
			t.Errorf("%s: no spend attributed", ts.Tenant)
		}
		if ts.EventsIn != 2*windowsPerFeed*2 {
			t.Errorf("%s: events in = %d", ts.Tenant, ts.EventsIn)
		}
	}

	// Every client closed; its sessions must have released their runtime
	// subscriptions (the leak assertion).
	waitFor(t, 5*time.Second, "every runtime subscription to be released", func() bool {
		return rt.Snapshot().Subscriptions == 0
	})

	// Drain: stop accepting, close the runtime (flushing trailing windows),
	// wait for sessions.
	s.Drain()
	if _, err := net.Dial("tcp", addr); err == nil {
		// A TCP dial may still connect before the listener close lands, but
		// the handshake must fail.
		t.Log("post-drain dial connected; relying on session rejection")
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("runtime close: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Wait(ctx); err != nil {
		t.Fatalf("wait: %v", err)
	}
}

// TestSlowSubscriberIsolation pins the backpressure contract: a tenant
// connection that never drains its answers stalls and overflows its own
// outbound queue, while a well-behaved tenant on the same runtime keeps
// receiving everything. The slow tenant ingests over a second connection —
// a stalled subscriber connection backpressures its own control traffic by
// design, so producer and consumer are split as a real deployment would.
// The fast tenant runs closed-loop — it takes window w's answer before it
// ingests window w+2 — so its own ring, as shallow as the slow tenant's,
// never holds more than one answer and any Gap it saw would be the slow
// tenant's doing.
func TestSlowSubscriberIsolation(t *testing.T) {
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	// A tiny outbound queue makes the slow connection overflow quickly.
	s, l := startServer(t, rt, Config{ReplayBuffer: 2})

	slowSub := dialTenant(t, l, "slow")  // subscribes, never drains
	slowFeed := dialTenant(t, l, "slow") // same tenant, ingest only
	fast := dialTenant(t, l, "fast")

	if _, err := slowSub.Subscribe("probe", 1); err != nil {
		t.Fatal(err)
	}
	subFast, err := fast.Subscribe("probe", 256)
	if err != nil {
		t.Fatal(err)
	}

	const windows = 30
	deadline := time.After(10 * time.Second)
	for w := int64(0); w < windows; w++ {
		if _, err := slowFeed.Ingest(windowEvents("s1", w)); err != nil {
			t.Fatal(err)
		}
		if _, err := fast.Ingest(windowEvents("s1", w)); err != nil {
			t.Fatal(err)
		}
		if w == 0 {
			continue
		}
		// Window w's events closed window w-1: the fast tenant must see
		// every closed window of its own stream exactly once and in order,
		// regardless of the slow tenant's stalled connection.
		select {
		case a := <-subFast.C:
			if a.Gap || a.Stream != "s1" || a.Seq != uint64(w) || a.WindowIndex != uint64(w-1) {
				t.Fatalf("fast tenant, closing window %d: got %+v", w-1, a)
			}
		case <-deadline:
			t.Fatalf("fast tenant stalled by slow tenant: %d answers of %d", w-1, windows-1)
		}
	}
	select {
	case a := <-subFast.C:
		t.Fatalf("fast tenant got an answer nothing owed it: %+v", a)
	default:
	}
	// And the slow tenant's overflow was counted against it alone.
	dropDeadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		var slowDropped, fastDropped int64
		for _, ts := range st.Tenants {
			switch ts.Tenant {
			case "slow":
				slowDropped = ts.AnswersDropped
			case "fast":
				fastDropped = ts.AnswersDropped
			}
		}
		if fastDropped != 0 {
			t.Fatalf("fast tenant dropped %d answers", fastDropped)
		}
		if slowDropped > 0 {
			break
		}
		if time.Now().After(dropDeadline) {
			t.Fatal("slow tenant's drops never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// BenchmarkWireIngest measures end-to-end ingest throughput through the
// full serving stack — client encode, framing, CRC, server decode,
// namespacing, runtime routing — over an in-memory connection.
func BenchmarkWireIngest(b *testing.B) {
	rt := newTestRuntime(b, 0)
	defer rt.Close()
	_, l := startServer(b, rt, Config{})
	conn, err := l.Dial()
	if err != nil {
		b.Fatal(err)
	}
	c, err := connectOver(conn, "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	const batch = 64
	evs := make([]event.Event, batch)
	for i := range evs {
		typ := event.Type("a")
		if i%2 == 1 {
			typ = "b"
		}
		evs[i] = event.New(typ, event.Timestamp(i)).WithSource("s1")
	}
	b.SetBytes(int64(len(wire.AppendIngest(nil, wire.Ingest{Events: evs}))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range evs {
			evs[j].Time = event.Timestamp(int64(i)*batch + int64(j))
		}
		if _, err := c.Ingest(evs); err != nil {
			b.Fatal(err)
		}
	}
}
