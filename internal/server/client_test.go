package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"patterndp/internal/wire"
)

// scriptPeer is the server end of a pipe, scripted frame by frame, so a test
// decides exactly what the client's read loop holds and when. Its Welcome
// sets no heartbeat: the client neither pings nor arms read deadlines.
type scriptPeer struct {
	conn net.Conn
	r    *wire.Reader
}

func newScriptPeer(conn net.Conn) *scriptPeer {
	return &scriptPeer{conn: conn, r: wire.NewReader(conn)}
}

// next reads the next frame, which must be of type want.
func (p *scriptPeer) next(want wire.Type) (wire.Frame, error) {
	f, err := p.r.Next()
	if err == nil && f.Type != want {
		err = fmt.Errorf("got a %v frame, want %v", f.Type, want)
	}
	return f, err
}

// handshake answers the client's Hello with a Welcome naming session.
func (p *scriptPeer) handshake(session string) error {
	if _, err := p.next(wire.THello); err != nil {
		return err
	}
	w := wire.Welcome{Tenant: "alice", Session: session}
	return wire.WriteFrame(p.conn, wire.TWelcome, wire.AppendWelcome(nil, w))
}

// subscribed accepts the client's next Subscribe.
func (p *scriptPeer) subscribed() (wire.Subscribe, error) {
	f, err := p.next(wire.TSubscribe)
	if err != nil {
		return wire.Subscribe{}, err
	}
	s, err := wire.DecodeSubscribe(f.Payload)
	if err != nil {
		return s, err
	}
	return s, wire.WriteFrame(p.conn, wire.TSubscribed, wire.AppendSubscribed(nil, wire.Subscribed{Req: s.Req, ID: s.ID}))
}

// answers appends the frames of answers seqs from..to of subscription id.
func answers(dst []byte, id, from, to uint64, query string) []byte {
	for seq := from; seq <= to; seq++ {
		dst = wire.AppendAnswerFrame(dst, &wire.Answer{Sub: id, Seq: seq, Stream: "s1", Query: query})
	}
	return dst
}

// recvAnswer takes the next answer off c, failing the test if c closes or
// stays empty for five seconds.
func recvAnswer(t *testing.T, c <-chan wire.Answer) wire.Answer {
	t.Helper()
	select {
	case a, ok := <-c:
		if !ok {
			t.Fatal("subscription closed early")
		}
		return a
	case <-time.After(5 * time.Second):
		t.Fatal("no answer within 5s")
	}
	return wire.Answer{}
}

// TestUnsubscribeDropsBufferedBurst unsubscribes while the rest of a burst for
// that subscription sits in the client's read buffer, behind a full channel
// the read loop is blocked on, and then sends more of its answers, as a
// server writer may before it reads the Unsubscribe. The read loop still
// holds the subscription it resolved for the burst: what it is handed after
// the Unsubscribe must be dropped, never sent on the closed channel, and the
// other subscription's answers, before the burst and after it, must all
// arrive.
func TestUnsubscribeDropsBufferedBurst(t *testing.T) {
	const burst = 8
	cconn, sconn := net.Pipe()
	defer sconn.Close()
	p := newScriptPeer(sconn)
	script := make(chan error, 1)
	go func() {
		script <- func() error {
			if err := p.handshake("tok"); err != nil {
				return err
			}
			a, err := p.subscribed()
			if err != nil {
				return err
			}
			b, err := p.subscribed()
			if err != nil {
				return err
			}
			// One write, small enough that the client's first read takes all
			// of it.
			if _, err := sconn.Write(answers(answers(nil, b.ID, 1, burst, b.Query), a.ID, 1, burst, a.Query)); err != nil {
				return err
			}
			f, err := p.next(wire.TUnsubscribe)
			if err != nil {
				return err
			}
			u, err := wire.DecodeUnsubscribe(f.Payload)
			if err != nil {
				return err
			}
			if u.ID != a.ID {
				return fmt.Errorf("unsubscribe names id %d, want %d", u.ID, a.ID)
			}
			// The client terminated the subscription before it sent the
			// Unsubscribe, so these reach a closed subscription for certain.
			late := answers(nil, a.ID, burst+1, 2*burst, a.Query)
			late = wire.AppendFrame(late, wire.TAck, wire.AppendAck(nil, wire.Ack{Req: u.Req}))
			if _, err := sconn.Write(answers(late, b.ID, burst+1, 2*burst, b.Query)); err != nil {
				return err
			}
			go io.Copy(io.Discard, sconn) // the client's Goodbye
			return nil
		}()
	}()

	c, err := connectOver(cconn, "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	subA, err := c.Subscribe("qa", 1)
	if err != nil {
		t.Fatal(err)
	}
	subB, err := c.Subscribe("qb", 2*burst)
	if err != nil {
		t.Fatal(err)
	}
	// The read loop has resolved subA and, its one-slot buffer refilled,
	// blocks on the next answer until the Unsubscribe aborts that send.
	if a := recvAnswer(t, subA.C); a.Seq != 1 {
		t.Fatalf("first answer seq %d, want 1", a.Seq)
	}
	if err := c.Unsubscribe(subA); err != nil {
		t.Fatal(err)
	}
	// At most the answer buffered before the Unsubscribe is still there to
	// drain; the channel is closed behind it.
	for a := range subA.C {
		if a.Seq != 2 {
			t.Errorf("answer seq %d reached the unsubscribed channel", a.Seq)
		}
	}
	for seq := uint64(1); seq <= 2*burst; seq++ {
		if a := recvAnswer(t, subB.C); a.Seq != seq || a.Query != "qb" {
			t.Fatalf("other subscription got %+v, want seq %d of qb", a, seq)
		}
	}
	if err := <-script; err != nil {
		t.Fatalf("scripted server: %v", err)
	}
	if err := c.Err(); err != nil {
		t.Errorf("client failed: %v", err)
	}
}

// TestExpiredResumeRestartsSeq reconnects a client whose session the server
// no longer holds: the subscription gets a local gap marker of unknown extent
// (Seq 0) and is re-subscribed under the same id, and the answers the fresh
// subscription sends, from Seq 1 again, reach the same channel — none taken
// for a replay duplicate of the old sequence space.
func TestExpiredResumeRestartsSeq(t *testing.T) {
	const n = 3
	c1, s1 := net.Pipe()
	c2, s2 := net.Pipe()
	defer s1.Close()
	defer s2.Close()
	conns := make(chan net.Conn, 2)
	conns <- c1
	conns <- c2
	dial := func() (net.Conn, error) {
		select {
		case c := <-conns:
			return c, nil
		default:
			return nil, errors.New("no transport left")
		}
	}
	cut := make(chan struct{})
	script := make(chan error, 1)
	go func() {
		script <- func() error {
			p := newScriptPeer(s1)
			if err := p.handshake("old"); err != nil {
				return err
			}
			sub, err := p.subscribed()
			if err != nil {
				return err
			}
			if _, err := s1.Write(answers(nil, sub.ID, 1, n, sub.Query)); err != nil {
				return err
			}
			<-cut
			s1.Close()

			q := newScriptPeer(s2)
			if err := q.handshake("fresh"); err != nil {
				return err
			}
			f, err := q.next(wire.TResume)
			if err != nil {
				return err
			}
			res, err := wire.DecodeResume(f.Payload)
			if err != nil {
				return err
			}
			if res.Session != "old" || len(res.Subs) != 1 || res.Subs[0] != (wire.ResumeSub{ID: sub.ID, LastSeq: n}) {
				return fmt.Errorf("resume %+v, want session old and %d at seq %d", res, sub.ID, n)
			}
			// Expired: nothing resumed.
			if err := wire.WriteFrame(s2, wire.TResumed, wire.AppendResumed(nil, wire.Resumed{Req: res.Req, Session: "fresh"})); err != nil {
				return err
			}
			again, err := q.subscribed()
			if err != nil {
				return err
			}
			if again.ID != sub.ID || again.Query != sub.Query {
				return fmt.Errorf("re-subscribed as %+v, want id %d for %q", again, sub.ID, sub.Query)
			}
			if _, err := s2.Write(answers(nil, sub.ID, 1, n, sub.Query)); err != nil {
				return err
			}
			go io.Copy(io.Discard, s2) // the client's Goodbye
			return nil
		}()
	}()

	c, err := Connect(ClientConfig{Token: "alice", Dialer: dial, Reconnect: true, BackoffMin: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe("probe", 2*n+1)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= n; seq++ {
		if a := recvAnswer(t, sub.C); a.Seq != seq {
			t.Fatalf("answer seq %d, want %d", a.Seq, seq)
		}
	}
	close(cut)
	want := wire.Answer{Sub: sub.id, Query: "probe", Gap: true, GapFrom: n + 1}
	if a := recvAnswer(t, sub.C); a != want {
		t.Fatalf("after the expired resume got %+v, want the local gap marker %+v", a, want)
	}
	for seq := uint64(1); seq <= n; seq++ {
		if a := recvAnswer(t, sub.C); a.Seq != seq || a.Gap {
			t.Fatalf("re-subscribed answer %+v, want seq %d", a, seq)
		}
	}
	if err := <-script; err != nil {
		t.Fatalf("scripted server: %v", err)
	}
	if d := c.DupsDropped(); d != 0 {
		t.Errorf("%d answers of the restarted sequence space dropped as duplicates", d)
	}
}

// TestClientAnswerPathAllocs pins the client's answer path to zero
// allocations per answer: a steady stream of answer frames — a window's
// answers, stream after stream, as a server writer flushes them — read,
// decoded and delivered by the read loop into a subscription the test keeps
// drained.
func TestClientAnswerPathAllocs(t *testing.T) {
	const run = 32
	streams := []string{"s0", "s1", "s2", "s3"}
	queries := []string{"q0", "q1"}
	cconn, sconn := net.Pipe()
	defer sconn.Close()
	p := newScriptPeer(sconn)
	subscribed := make(chan wire.Subscribe, 1)
	script := make(chan error, 1)
	go func() {
		script <- func() error {
			if err := p.handshake("tok"); err != nil {
				return err
			}
			s, err := p.subscribed()
			subscribed <- s
			return err
		}()
	}()
	c, err := connectOver(cconn, "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		go io.Copy(io.Discard, sconn) // the client's Goodbye
		c.Close()
	}()
	sub, err := c.Subscribe("", run)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-script; err != nil {
		t.Fatalf("scripted server: %v", err)
	}
	id := (<-subscribed).ID

	var frames []byte
	seq := uint64(0)
	timeout := time.NewTimer(time.Minute)
	defer timeout.Stop()
	allocs := testing.AllocsPerRun(50, func() {
		frames = frames[:0]
		for i := 0; i < run; i++ {
			frames = wire.AppendAnswerFrame(frames, &wire.Answer{Sub: id, Seq: seq + uint64(i) + 1,
				Stream: streams[i/len(queries)%len(streams)], Query: queries[i%len(queries)]})
		}
		if _, err := sconn.Write(frames); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < run; i++ {
			seq++
			select {
			case a := <-sub.C:
				if a.Seq != seq {
					t.Fatalf("answer seq %d, want %d", a.Seq, seq)
				}
			case <-timeout.C:
				t.Fatalf("answer %d never delivered", seq)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("the client answer path allocates %.2f times per answer, want 0", allocs/run)
	}
}

// TestClientIngestAllocs pins Client.Ingest's request path to zero
// allocations per call: the reply slot and its timer are reused from one
// request to the next, and the batch is encoded straight into the write
// buffer. The peer is a scripted server over loopback TCP that acks each
// batch without allocating, so the count is the client's and the transport's.
func TestClientIngestAllocs(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	script := make(chan error, 1)
	go func() {
		script <- func() error {
			conn, err := l.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			p := newScriptPeer(conn)
			if err := p.handshake("tok"); err != nil {
				return err
			}
			var ack []byte
			for {
				f, err := p.r.Next()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				if f.Type != wire.TIngest {
					continue // the client's Goodbye
				}
				req, n := binary.Uvarint(f.Payload)
				if n <= 0 {
					return fmt.Errorf("ingest payload without a request id")
				}
				ack = wire.AppendAckFrame(ack[:0], wire.Ack{Req: req, N: 1})
				if _, err := conn.Write(ack); err != nil {
					return err
				}
			}
		}()
	}()
	c, err := Connect(ClientConfig{Token: "alice", Dialer: func() (net.Conn, error) {
		return net.Dial("tcp", l.Addr().String())
	}})
	if err != nil {
		t.Fatal(err)
	}
	evs := windowEvents("s1", 0)
	ingest := func() {
		if n, err := c.Ingest(evs); err != nil || n != 1 {
			t.Fatalf("ingest = %d, %v", n, err)
		}
	}
	for i := 0; i < 10; i++ {
		ingest()
	}
	if allocs := testing.AllocsPerRun(200, ingest); allocs != 0 {
		t.Errorf("Client.Ingest allocates %v times per call, want 0", allocs)
	}
	c.Close()
	if err := <-script; err != nil {
		t.Errorf("scripted server: %v", err)
	}
}
