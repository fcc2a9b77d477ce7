package server

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"patterndp/internal/event"
	"patterndp/internal/runtime"
	"patterndp/internal/wire"
)

// TestAckFollowsBatchAnswers pins the ingest Ack's place on the wire: on one
// connection, every answer a batch produced for the connection's
// subscriptions precedes that batch's Ack, and Acks leave in request order.
// The peer pipelines many batches to two subscriptions, each batch closing
// one window on each of two streams that live on different shards, so a
// batch is acked only once both shards have served their parts; the Ack
// frames are byte for byte what AppendFrame(TAck, AppendAck) encodes. The
// batch count is what makes a writer that takes the ready Acks after its
// ring sweep, instead of before, fail here: an answer published between the
// two is rare per batch.
func TestAckFollowsBatchAnswers(t *testing.T) {
	const (
		batches = 16000
		subs    = 2
		first   = subs + 1 // the first ingest's request id
	)
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	_, l := startServer(t, rt, Config{})
	// One stream per shard, by the namespaced key the runtime routes on.
	var streams []string
	taken := map[int]bool{}
	for i := 0; len(streams) < 2; i++ {
		src := string(rune('a' + i))
		if sh := (runtime.HashSharder{}).Shard("alice/"+src, len(rt.Snapshot().Shards)); !taken[sh] {
			taken[sh] = true
			streams = append(streams, src)
		}
	}

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	_, r, err := handshake(conn, "alice")
	if err != nil {
		t.Fatal(err)
	}
	// Several subscriptions, so a writer sweep visits several rings.
	for id := uint64(1); id <= subs; id++ {
		if err := wire.WriteFrame(conn, wire.TSubscribe, wire.AppendSubscribe(nil, wire.Subscribe{Req: id, ID: id})); err != nil {
			t.Fatal(err)
		}
		if f, err := r.Next(); err != nil || f.Type != wire.TSubscribed {
			t.Fatalf("subscribe reply: %v, %v", f.Type, err)
		}
	}

	// Batch k (request first+k) closes window k-1 of both streams. At most
	// inFlight batches are unacked, so the replay ring never overflows.
	const inFlight = 8
	credit := make(chan struct{}, inFlight)
	written := make(chan error, 1)
	go func() {
		var frame []byte
		for k := int64(0); k < batches; k++ {
			credit <- struct{}{}
			var evs []event.Event
			for _, src := range streams {
				evs = append(evs, windowEvents(src, k)...)
			}
			frame = wire.AppendIngestFrame(frame[:0], wire.Ingest{Req: uint64(first + k), Events: evs})
			if _, err := conn.Write(frame); err != nil {
				written <- err
				return
			}
		}
		written <- nil
	}()

	type key struct {
		sub    uint64
		stream string
	}
	got := map[key]int64{} // answers received per subscription and stream
	for next := uint64(first); next < first+batches; {
		f, err := r.Next()
		if err != nil {
			t.Fatalf("after %d acks: %v", next-first, err)
		}
		switch f.Type {
		case wire.TAnswer:
			a, err := wire.DecodeAnswer(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			at := key{a.Sub, a.Stream}
			if a.WindowIndex != uint64(got[at]) {
				t.Fatalf("sub %d stream %s: window %d after %d answers", a.Sub, a.Stream, a.WindowIndex, got[at])
			}
			got[at]++
		case wire.TAck:
			ack, err := wire.DecodeAck(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if ack.Req != next || ack.N != uint64(2*len(streams)) {
				t.Fatalf("ack %+v, want request %d acked with %d events", ack, next, 2*len(streams))
			}
			if want := wire.AppendAck(nil, ack); !bytes.Equal(f.Payload, want) {
				t.Fatalf("ack payload %x, want %x", f.Payload, want)
			}
			k := int64(next - first)
			for sub := uint64(1); sub <= subs; sub++ {
				for _, src := range streams {
					if n := got[key{sub, src}]; n < k {
						t.Fatalf("request %d acked with %d answers of sub %d stream %s received, want its %d first",
							next, n, sub, src, k)
					}
				}
			}
			next++
			<-credit
		default:
			t.Fatalf("unexpected %v frame", f.Type)
		}
	}
	if err := <-written; err != nil {
		t.Fatal(err)
	}
}

// TestIngestErrorSendsNoAck refuses an ingest in the runtime (closed under
// the session): the request gets its Error, and no Ack — the Pong of a ping
// sent behind it is the next frame.
func TestIngestErrorSendsNoAck(t *testing.T) {
	rt := newTestRuntime(t, 0)
	_, l := startServer(t, rt, Config{})
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	_, r, err := handshake(conn, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	reqs := wire.AppendIngestFrame(nil, wire.Ingest{Req: 5, Events: windowEvents("s1", 0)})
	reqs = wire.AppendFrame(reqs, wire.TPing, wire.AppendPing(nil, wire.Ping{Nonce: 9}))
	if _, err := conn.Write(reqs); err != nil {
		t.Fatal(err)
	}
	f, err := r.Next()
	if err != nil || f.Type != wire.TError {
		t.Fatalf("ingest reply: %v, %v; want an error", f.Type, err)
	}
	if e, err := wire.DecodeError(f.Payload); err != nil || e.Req != 5 || !strings.Contains(e.Msg, "closed") {
		t.Fatalf("error %+v, %v", e, err)
	}
	if f, err := r.Next(); err != nil || f.Type != wire.TPong {
		t.Fatalf("frame after the error: %v, %v; want the pong", f.Type, err)
	}
}

// TestIngestAckWaitsForUndrainedSubscription pins the client side of the
// ack's place on the wire: a batch that produces more answers than a
// subscription's buffer holds cannot be acked to a caller that drains that
// subscription only after Ingest returns — the read loop blocks on the full
// channel ahead of the Ack, and Ingest times out. Drained concurrently, the
// next batch is acked.
func TestIngestAckWaitsForUndrainedSubscription(t *testing.T) {
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	_, l := startServer(t, rt, Config{})
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Connect(ClientConfig{
		Token:          "alice",
		Dialer:         func() (net.Conn, error) { return conn, nil },
		RequestTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe("probe", 1)
	if err != nil {
		t.Fatal(err)
	}

	// Windows 0..5 of one stream: the batch closes windows 0..4, five
	// answers for a one-slot channel.
	var evs []event.Event
	for k := int64(0); k <= 5; k++ {
		evs = append(evs, windowEvents("s1", k)...)
	}
	if _, err := c.Ingest(evs); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("ingest with an undrained subscription: %v, want a request timeout", err)
	}

	drained := make(chan int)
	go func() {
		n := 0
		for a := range sub.C {
			if n++; a.WindowIndex == 5 {
				break
			}
		}
		drained <- n
	}()
	if n, err := c.Ingest(windowEvents("s1", 6)); err != nil || n != 2 {
		t.Fatalf("ingest with a drained subscription: %d, %v", n, err)
	}
	if n := <-drained; n != 6 {
		t.Fatalf("drained %d answers, want windows 0..5", n)
	}
}
