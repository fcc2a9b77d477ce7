package server

import (
	"bytes"
	goruntime "runtime"
	"testing"
	"time"

	"patterndp/internal/runtime"
	"patterndp/internal/wire"
)

// TestDeliverNeverBlocks is the ring's contract as a runtime.Sink: with no
// writer popping it, a delivery far larger than the ring returns at once, the
// overflow is counted against the tenant, answers this tenant may not see use
// up no sequence numbers, and the next drain tells the subscriber exactly
// what it lost — one Gap marker over the evicted range, then the survivors.
func TestDeliverNeverBlocks(t *testing.T) {
	const ringCap, owed = 4, 100
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	s, err := New(Config{Runtime: rt, Auth: TokenAuth(0), ReplayBuffer: ringCap})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := s.newCore(s.tenantFor(Tenant{ID: "alice"}), "alice/", nil)
	defer c.retireIf(false)
	st := newSubState(c, 7, "")

	var batch []runtime.Answer
	for i := 0; i < owed; i++ {
		var mine, theirs runtime.Answer
		mine.Stream, mine.Query, mine.WindowIndex = "alice/s1", "probe", i
		theirs.Stream, theirs.Query, theirs.WindowIndex = "bob/s1", "probe", i
		batch = append(batch, theirs, mine)
	}
	st.Deliver(batch) // on this goroutine: a Deliver that blocked would hang the test

	if got := tenantStats(t, s, "alice").AnswersDropped; got != owed-ringCap {
		t.Errorf("answersDropped = %d, want %d", got, owed-ringCap)
	}
	var out outbox
	if n := st.drain(&out); n != ringCap+1 {
		t.Fatalf("drain popped %d frames, want a gap marker and %d answers", n, ringCap)
	}
	if st.drain(&out) != 0 {
		t.Error("a drained ring popped again")
	}
	r := wire.NewReader(bytes.NewReader(out.buf))
	for i := 0; i <= ringCap; i++ {
		f, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		a, err := wire.DecodeAnswer(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if !a.Gap || a.Sub != 7 || a.GapFrom != 1 || a.Seq != owed-ringCap {
				t.Fatalf("first frame = %+v, want a gap marker over seq 1..%d", a, owed-ringCap)
			}
			continue
		}
		seq := uint64(owed - ringCap + i)
		if a.Gap || a.Sub != 7 || a.Seq != seq || a.WindowIndex != seq-1 || a.Stream != "s1" || a.Query != "probe" {
			t.Errorf("frame %d = %+v, want seq %d of alice's own answers", i, a, seq)
		}
	}
	if out.gaps != 1 || out.answers != ringCap {
		t.Errorf("outbox credits %d gaps and %d answers, want 1 and %d", out.gaps, out.answers, ringCap)
	}
}

// TestSubscriptionsCostNoGoroutines pins the session's shape: a reader and a
// writer, however many subscriptions it holds — the rings are fed by the
// runtime's shards directly — and nothing left behind once it closes. The
// peer is a bare connection, so every goroutine counted is the server's.
func TestSubscriptionsCostNoGoroutines(t *testing.T) {
	const subs = 50
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	s, l := startServer(t, rt, Config{})
	before := goruntime.NumGoroutine()

	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, r, err := handshake(conn, "alice")
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= subs; id++ {
		req := wire.AppendSubscribe(nil, wire.Subscribe{Req: id, ID: id, Query: "probe"})
		if err := wire.WriteFrame(conn, wire.TSubscribe, req); err != nil {
			t.Fatal(err)
		}
		// The reply orders the check below after the subscription is live
		// (and, for the first, after the writer was started).
		if f, err := r.Next(); err != nil || f.Type != wire.TSubscribed {
			t.Fatalf("subscribe %d: %v, %v", id, f.Type, err)
		}
	}
	if got := rt.Snapshot().Subscriptions; got != subs {
		t.Fatalf("open runtime subscriptions = %d, want %d", got, subs)
	}
	if got := goruntime.NumGoroutine(); got > before+2 {
		t.Errorf("a session with %d subscriptions runs %d goroutines, want its reader and writer only", subs, got-before)
	}
	if err := wire.WriteFrame(conn, wire.TGoodbye, wire.AppendGoodbye(nil, wire.Goodbye{Reason: "done"})); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitFor(t, 10*time.Second, "the session to unwind", func() bool {
		return s.Stats().ConnsOpen == 0 && goruntime.NumGoroutine() <= before
	})
	if got := rt.Snapshot().Subscriptions; got != 0 {
		t.Errorf("open runtime subscriptions after close = %d, want 0", got)
	}
}
