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
// N tenants connect concurrently, each registers its own query, subscribes
// to it and to the shared query, ingests several windows across two streams,
// and verifies every answer it sees is its own. Afterwards the test asserts
// no runtime subscription leaked, the ledger attributes spend per tenant,
// and drain shuts everything down cleanly.
func TestIntegrationMultiTenant(t *testing.T) {
	const (
		tenants        = 4
		windowsPerFeed = 5
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

	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", ti)
			fail := func(format string, args ...any) {
				errs <- fmt.Errorf("%s: %s", tenant, fmt.Sprintf(format, args...))
			}
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				fail("dial: %v", err)
				return
			}
			c, err := connectOver(conn, tenant)
			if err != nil {
				fail("handshake: %v", err)
				return
			}
			defer c.Close()
			if c.Welcome().Tenant != tenant {
				fail("welcome tenant = %q", c.Welcome().Tenant)
				return
			}
			own := fmt.Sprintf("q%d", ti)
			if _, err := c.RegisterQuery(own, "SEQ(a, b)", 10); err != nil {
				fail("register: %v", err)
				return
			}
			subOwn, err := c.Subscribe(own, 256)
			if err != nil {
				fail("subscribe own: %v", err)
				return
			}
			subAll, err := c.Subscribe("", 256)
			if err != nil {
				fail("subscribe all: %v", err)
				return
			}
			for w := int64(0); w < windowsPerFeed; w++ {
				for _, stream := range []string{"s1", "s2"} {
					if _, err := c.Ingest(windowEvents(stream, w)); err != nil {
						fail("ingest: %v", err)
						return
					}
				}
			}
			// Each feed has windowsPerFeed-1 closed windows (the last stays
			// open until drain); the subscribe-all handle sees both queries.
			const wantOwn = 2 * (windowsPerFeed - 1)
			deadline := time.After(10 * time.Second)
			for got := 0; got < wantOwn; got++ {
				select {
				case a := <-subOwn.C:
					if a.Query != own {
						fail("own subscription saw query %q", a.Query)
						return
					}
					if a.Stream != "s1" && a.Stream != "s2" {
						fail("own subscription saw stream %q", a.Stream)
						return
					}
				case <-deadline:
					fail("own answers: got %d of %d", got, wantOwn)
					return
				}
			}
			for got := 0; got < 2*wantOwn; got++ {
				select {
				case a := <-subAll.C:
					if a.Query != own && a.Query != "probe" {
						fail("subscribe-all saw foreign query %q", a.Query)
						return
					}
				case <-deadline:
					fail("subscribe-all answers: got %d of %d", got, 2*wantOwn)
					return
				}
			}
			if err := c.Unsubscribe(subOwn); err != nil {
				fail("unsubscribe: %v", err)
			}
		}(ti)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
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
	deadline := time.Now().Add(5 * time.Second)
	for rt.Snapshot().Subscriptions != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscription leak: %d still open", rt.Snapshot().Subscriptions)
		}
		time.Sleep(time.Millisecond)
	}

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
