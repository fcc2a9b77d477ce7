package server

import (
	"bytes"
	"fmt"
	"io"
	"net"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"patterndp/internal/dp"
	"patterndp/internal/event"
	"patterndp/internal/runtime"
	"patterndp/internal/wire"
)

// countingConn counts the Write calls made on a connection and, with tee set,
// keeps the bytes they carried.
type countingConn struct {
	net.Conn

	mu     sync.Mutex
	writes int
	tee    *bytes.Buffer
	wrote  chan struct{} // cap 1; poked after every Write
}

func newCountingConn(inner net.Conn, tee *bytes.Buffer) *countingConn {
	return &countingConn{Conn: inner, tee: tee, wrote: make(chan struct{}, 1)}
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.writes++
	if c.tee != nil {
		c.tee.Write(p[:n])
	}
	c.mu.Unlock()
	select {
	case c.wrote <- struct{}{}:
	default:
	}
	return n, err
}

// written returns the Write count and a copy of the teed bytes so far.
func (c *countingConn) written() (int, []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tee == nil {
		return c.writes, nil
	}
	return c.writes, bytes.Clone(c.tee.Bytes())
}

// countingListener hands every accepted connection to the server wrapped in a
// countingConn, and to the test over conns.
type countingListener struct {
	net.Listener
	conns chan *countingConn // cap = connections the test will dial
}

func (l countingListener) Accept() (net.Conn, error) {
	inner, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := newCountingConn(inner, nil)
	l.conns <- c
	return c, nil
}

// TestWriterCoalescesBurst parks a session's writer inside a socket write (the
// peer has taken one byte of a frame and stopped reading), queues a burst of
// answers across two subscriptions behind its back, and lets the peer read
// again: everything must leave in at most ⌈bytes / wire.BufferSize⌉ + 1
// socket writes, the bytes on the wire must be exactly the frames the
// frame-per-write path produced — AppendFrame(TAnswer, AppendAnswer(nil, a))
// for each answer in delivery order — and the sent counter is credited for
// all of them.
func TestWriterCoalescesBurst(t *testing.T) {
	const perSub = 1500 // × 2 subscriptions × ~60 B: a burst of about 3 flushes
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	s, err := New(Config{Runtime: rt, Auth: TokenAuth(0), ReplayBuffer: perSub})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	peer, inner := net.Pipe()
	defer peer.Close()
	var onWire bytes.Buffer
	cc := newCountingConn(inner, &onWire)

	ss := newSession(s, cc)
	ss.tenant = s.tenantFor(Tenant{ID: "alice"})
	ss.prefix = "alice/"
	c := s.newCore(ss.tenant, ss.prefix, ss)
	ss.setCore(c)
	var rings []*subState
	for id := uint64(1); id <= 2; id++ {
		st := newSubState(c, id, "")
		if err := st.attach(); err != nil {
			t.Fatal(err)
		}
		if ok, _ := c.addSub(st); !ok {
			t.Fatal("addSub refused")
		}
		rings = append(rings, st)
	}
	ss.wg.Add(1)
	go ss.writeLoop()
	defer func() {
		ss.close()
		ss.wg.Wait()
		ss.release()
	}()

	want := map[uint64][][]byte{} // subscription → its frames, in seq order
	var wantBytes int
	queue := func(st *subState, i int) {
		a := wire.Answer{
			Stream: fmt.Sprintf("s%d", i%7), Query: "probe", WindowIndex: uint64(i),
			Start: int64(i) * 10, End: int64(i)*10 + 10, Detected: i%3 == 0, SpentEpsilon: float64(i),
		}
		ra := runtime.Answer{Stream: "alice/" + a.Stream, SpentEpsilon: dp.Epsilon(a.SpentEpsilon)}
		ra.Query, ra.WindowIndex, ra.Detected = a.Query, i, a.Detected
		ra.Start, ra.End = event.Timestamp(a.Start), event.Timestamp(a.End)
		st.Deliver([]runtime.Answer{ra})
		a.Sub, a.Seq = st.id, uint64(i+1)
		frame := wire.AppendFrame(nil, wire.TAnswer, wire.AppendAnswer(nil, a))
		want[st.id] = append(want[st.id], frame)
		wantBytes += len(frame)
	}
	// One answer, and one byte of it read: net.Pipe holds the writer inside
	// that Write until the peer has taken the rest.
	queue(rings[0], 0)
	ss.kick()
	if _, err := peer.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < perSub; i++ {
		for _, st := range rings {
			if i > 0 || st != rings[0] {
				queue(st, i)
			}
		}
	}
	ss.kick()
	go io.Copy(io.Discard, peer)

	timeout := time.After(10 * time.Second)
	var writes int
	var got []byte
	for {
		if writes, got = cc.written(); len(got) >= wantBytes {
			break
		}
		select {
		case <-cc.wrote:
		case <-timeout:
			t.Fatalf("writer delivered %d of %d bytes", len(got), wantBytes)
		}
	}
	if max := (wantBytes+wire.BufferSize-1)/wire.BufferSize + 1; writes > max {
		t.Errorf("%d answers (%d bytes) took %d writes, want at most %d", 2*perSub, wantBytes, writes, max)
	}
	// Walk the wire: every frame must be the next one its subscription owes,
	// byte for byte.
	rest := got
	for len(rest) > 0 {
		f, n, err := wire.DecodeFrame(rest)
		if err != nil {
			t.Fatalf("wire bytes do not parse at offset %d: %v", len(got)-len(rest), err)
		}
		a, err := wire.DecodeAnswer(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		owed := want[a.Sub]
		if len(owed) == 0 || !bytes.Equal(rest[:n], owed[0]) {
			t.Fatalf("sub %d seq %d: frame differs from AppendFrame(TAnswer, AppendAnswer(nil, a))", a.Sub, a.Seq)
		}
		want[a.Sub] = owed[1:]
		rest = rest[n:]
	}
	for id, owed := range want {
		if len(owed) != 0 {
			t.Errorf("sub %d: %d frames never written", id, len(owed))
		}
	}
	// Credit follows the flush; stopping the writer orders it before the read.
	ss.close()
	ss.wg.Wait()
	if ts := tenantStats(t, s, "alice"); ts.AnswersSent != 2*perSub || ts.GapsSent != 0 || ts.AnswersDropped != 0 {
		t.Errorf("credited %d answers, %d gaps and %d dropped, want %d, 0 and 0",
			ts.AnswersSent, ts.GapsSent, ts.AnswersDropped, 2*perSub)
	}
	if st := s.Stats(); st.Flushes != int64(writes) {
		t.Errorf("flushes = %d, writes = %d", st.Flushes, writes)
	}
}

// TestWedgedPeerTearsFlush wedges a subscriber — it stops reading mid-session
// — and checks what the write deadline does to a coalesced flush: the write
// is abandoned and counted once, the session parks for a resume, and none of
// the answers in the torn flush is credited as sent.
func TestWedgedPeerTearsFlush(t *testing.T) {
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	s, l := startServer(t, rt, Config{Heartbeat: 200 * time.Millisecond})

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, r, err := handshake(conn, "alice")
	if err != nil {
		t.Fatal(err)
	}
	sub := wire.AppendSubscribe(nil, wire.Subscribe{Req: 1, ID: 1, Query: "probe"})
	if err := wire.WriteFrame(conn, wire.TSubscribe, sub); err != nil {
		t.Fatal(err)
	}
	if f, err := r.Next(); err != nil || f.Type != wire.TSubscribed {
		t.Fatalf("subscribe reply: %v, %v", f.Type, err)
	}
	// From here on the peer reads nothing.
	feeder := dialTenant(t, l, "alice")
	for w := int64(0); w < 4; w++ {
		if _, err := feeder.Ingest(windowEvents("s1", w)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "the wedged write to time out and the session to park", func() bool {
		return tenantStats(t, s, "alice").WriteTimeouts == 1 && s.Stats().SessionsParked == 1
	})
	// The only writes credited are the feeder's four Acks, one per
	// closed-loop ingest.
	if ts := tenantStats(t, s, "alice"); ts.AnswersSent != 0 || s.Stats().Flushes != 4 {
		t.Errorf("torn flush credited: %d answers sent, %d flushes (want the feeder's 4 acks)", ts.AnswersSent, s.Stats().Flushes)
	}
}

// BenchmarkAnswerDelivery measures the outbound path through the full serving
// stack over an in-memory connection: one subscribe-all client ingests a
// batch that closes a window on every stream and takes the answers it is
// owed before the next — runtime publish into the replay ring, answer encode,
// socket write, client read and decode. Reported per delivered answer:
// time, heap allocations (whole process), and server socket writes (acks
// included).
func BenchmarkAnswerDelivery(b *testing.B) {
	const streams = 64
	rt := newTestRuntime(b, 0)
	defer rt.Close()
	s, err := New(Config{Runtime: rt, Auth: TokenAuth(0)})
	if err != nil {
		b.Fatal(err)
	}
	l := NewMemListener()
	conns := make(chan *countingConn, 1)
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.Serve(countingListener{l, conns})
	}()
	defer func() {
		s.Close()
		<-served
	}()
	conn, err := l.Dial()
	if err != nil {
		b.Fatal(err)
	}
	c, err := connectOver(conn, "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	cc := <-conns
	sub, err := c.Subscribe("", 2*streams)
	if err != nil {
		b.Fatal(err)
	}

	names := make([]string, streams)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	evs := make([]event.Event, 0, 2*streams)
	fill := func(w int64) {
		evs = evs[:0]
		for _, name := range names {
			evs = append(evs, windowEvents(name, w)...)
		}
	}
	fill(0) // opens every stream's first window; nothing is owed yet
	if _, err := c.Ingest(evs); err != nil {
		b.Fatal(err)
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	writes0, _ := cc.written()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		fill(int64(i))
		if _, err := c.Ingest(evs); err != nil {
			b.Fatal(err)
		}
		for n := 0; n < streams; n++ {
			if a := <-sub.C; a.Gap {
				b.Fatalf("gap %+v", a)
			}
		}
	}
	b.StopTimer()
	goruntime.ReadMemStats(&after)
	writes, _ := cc.written()
	answers := float64(b.N) * streams
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/answers, "ns/answer")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/answers, "allocs/answer")
	b.ReportMetric(float64(writes-writes0)/answers, "writes/answer")
}

// TestSlowConsumerKeepsConnection pins the client's idle deadline to the
// reads that can block, not to the frames: a scripted server sends a burst
// that ends mid-frame — what a read-ahead buffer holds after almost every
// read under load — the consumer sits on its full subscription for several
// heartbeat intervals, and only then does the rest of the last frame arrive.
// The read that fetches it must run on a fresh deadline: the one armed before
// the burst expired while the client was (deliberately) blocked delivering.
func TestSlowConsumerKeepsConnection(t *testing.T) {
	const (
		heartbeat = 50 * time.Millisecond
		burst     = 40 // whole answers in the first read; the subscription holds 4
	)
	cconn, sconn := net.Pipe()
	defer sconn.Close()
	sent := make(chan struct{})   // the burst has been read by the client
	resume := make(chan struct{}) // the consumer is draining again
	script := make(chan error, 1)
	go func() {
		script <- func() error {
			r := wire.NewReader(sconn)
			if f, err := r.Next(); err != nil || f.Type != wire.THello {
				return fmt.Errorf("hello: %v, %v", f.Type, err)
			}
			w := wire.Welcome{Tenant: "alice", Session: "tok", HeartbeatMillis: uint64(heartbeat / time.Millisecond)}
			if err := wire.WriteFrame(sconn, wire.TWelcome, wire.AppendWelcome(nil, w)); err != nil {
				return err
			}
			var sub wire.Subscribe
			for sub.ID == 0 { // pings may come first
				f, err := r.Next()
				if err != nil {
					return err
				}
				if f.Type == wire.TSubscribe {
					if sub, err = wire.DecodeSubscribe(f.Payload); err != nil {
						return err
					}
				}
			}
			ok := wire.AppendSubscribed(nil, wire.Subscribed{Req: sub.Req, ID: sub.ID})
			if err := wire.WriteFrame(sconn, wire.TSubscribed, ok); err != nil {
				return err
			}
			go io.Copy(io.Discard, sconn) // the client's pings
			var frames []byte
			for i := 1; i <= burst+1; i++ {
				frames = wire.AppendAnswerFrame(frames, &wire.Answer{Sub: sub.ID, Seq: uint64(i), Stream: "s1", Query: "probe"})
			}
			cut := len(frames) - 7
			if _, err := sconn.Write(frames[:cut]); err != nil {
				return err
			}
			close(sent)
			<-resume
			_, err := sconn.Write(frames[cut:])
			return err
		}()
	}()

	c, err := connectOver(cconn, "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe("probe", 4)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sent:
	case err := <-script:
		t.Fatalf("scripted server: %v", err)
	}
	time.Sleep(5 * heartbeat) // the read deadline is 2 × heartbeat
	close(resume)
	timeout := time.After(5 * time.Second)
	for i := 1; i <= burst+1; i++ {
		select {
		case a, ok := <-sub.C:
			if !ok {
				t.Fatalf("subscription closed after %d of %d answers: %v", i-1, burst+1, c.Err())
			}
			if a.Seq != uint64(i) {
				t.Fatalf("answer %d has seq %d", i, a.Seq)
			}
		case <-timeout:
			t.Fatalf("timed out after %d of %d answers", i-1, burst+1)
		}
	}
	if err := <-script; err != nil {
		t.Errorf("scripted server: %v", err)
	}
}

// stallSink holds the shard that serves it: its first Deliver signals
// entered and blocks until release closes.
type stallSink struct {
	entered, release chan struct{}
	once             sync.Once
}

func (s *stallSink) Deliver([]runtime.Answer) {
	s.once.Do(func() {
		close(s.entered)
		<-s.release
	})
}

// TestSlowDispatchKeepsSession is the same property on the server's request
// loop: a request that takes longer than the idle deadline to handle — an
// ingest held by Block backpressure behind a stalled sink, as in production —
// must not cost the session the request buffered behind it, even when that
// request is still partly in flight.
func TestSlowDispatchKeepsSession(t *testing.T) {
	const heartbeat = 50 * time.Millisecond
	rt := newTestRuntime(t, 0, func(c *runtime.Config) { c.Shards, c.ShardBuffer = 1, 1 })
	defer rt.Close()
	_, l := startServer(t, rt, Config{Heartbeat: heartbeat})

	// Wedge the only shard in a Deliver, then fill its one-message channel:
	// the next ingest blocks until the sink is released.
	sink := &stallSink{entered: make(chan struct{}), release: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(sink.release) }) }
	defer release()
	if _, err := rt.Attach("probe", sink); err != nil {
		t.Fatal(err)
	}
	for w := int64(0); w < 2; w++ { // the second closes window 0
		if err := rt.IngestBatch(windowEvents("s1", w)); err != nil {
			t.Fatal(err)
		}
	}
	<-sink.entered
	if err := rt.IngestBatch(windowEvents("s1", 2)); err != nil {
		t.Fatal(err)
	}

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
	frames := make(chan wire.Frame, 2)
	go func() {
		defer close(frames)
		for {
			f, err := r.Next()
			if err != nil {
				return
			}
			frames <- wire.Frame{Type: f.Type, Payload: append([]byte(nil), f.Payload...)}
		}
	}()
	reqs := wire.AppendIngestFrame(nil, wire.Ingest{Req: 1, Events: windowEvents("s1", 3)})
	cut := len(reqs) + 5
	reqs = wire.AppendFrame(reqs, wire.TPing, wire.AppendPing(nil, wire.Ping{Nonce: 7}))
	// One write, so one server read: the whole ingest and the front of a ping.
	if _, err := conn.Write(reqs[:cut]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * heartbeat) // the read deadline is 2 × heartbeat
	select {
	case f, ok := <-frames:
		t.Fatalf("ingest answered while its shard was stalled: %v (open %v)", f.Type, ok)
	default:
	}
	release()
	if _, err := conn.Write(reqs[cut:]); err != nil {
		t.Fatalf("session gone after a slow dispatch: %v", err)
	}
	// An ingest is acked once served, so the pong may overtake the ack:
	// both replies are owed, in either order.
	var acked, ponged bool
	for !acked || !ponged {
		f, ok := <-frames
		switch {
		case !ok:
			t.Fatalf("session closed with ack %v, pong %v", acked, ponged)
		case f.Type == wire.TAck && !acked:
			if a, err := wire.DecodeAck(f.Payload); err != nil || a.Req != 1 {
				t.Fatalf("ack: %+v, %v", a, err)
			}
			acked = true
		case f.Type == wire.TPong && !ponged:
			if want := wire.AppendPong(nil, wire.Pong{Nonce: 7}); !bytes.Equal(f.Payload, want) {
				t.Fatalf("pong payload %x, want %x", f.Payload, want)
			}
			ponged = true
		default:
			t.Fatalf("unexpected reply %v (ack %v, pong %v)", f.Type, acked, ponged)
		}
	}
}

// TestSlowConsumerOverTCP is the end-to-end shape of the two tests above, on
// a real socket: a subscriber that stops draining for several heartbeat
// intervals while hundreds of answers queue behind it is backpressured, not
// disconnected, and then receives every answer in order. Where the kernel
// splits the stream is not the test's to choose, so this one only usually
// catches a stale deadline; the two above always do.
func TestSlowConsumerOverTCP(t *testing.T) {
	const (
		heartbeat = 150 * time.Millisecond
		windows   = 400
	)
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	s, err := New(Config{Runtime: rt, Auth: TokenAuth(0), Heartbeat: heartbeat, ReplayBuffer: windows})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.Serve(l)
	}()
	defer func() {
		s.Close()
		<-served
	}()
	dial := func() *Client {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c, err := connectOver(conn, "alice")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	slow, feeder := dial(), dial()
	sub, err := slow.Subscribe("", 8)
	if err != nil {
		t.Fatal(err)
	}
	for w := int64(0); w < windows; w++ {
		if _, err := feeder.Ingest(windowEvents("s1", w)); err != nil {
			t.Fatal(err)
		}
	}
	timeout := time.After(10 * time.Second)
	for w := uint64(0); w < windows-1; w++ { // the last window is still open
		if w == 30 {
			// Everything owed is in the socket or already read, so the
			// client's last read filled its buffer and left a frame cut in
			// two. Stall on that.
			time.Sleep(4 * heartbeat) // the read deadline is 2 × heartbeat
		}
		select {
		case a, ok := <-sub.C:
			if !ok {
				t.Fatalf("subscription closed after %d of %d answers: %v", w, windows-1, slow.Err())
			}
			if a.Gap || a.WindowIndex != w {
				t.Fatalf("answer %d: %+v", w, a)
			}
		case <-timeout:
			t.Fatalf("timed out after %d of %d answers", w, windows-1)
		}
	}
}
