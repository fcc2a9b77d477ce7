// The race detector drops sync.Pool items at random, and the engine draws
// its per-call RNG from one, so this allocation pin holds only without it.

//go:build !race

package server

import (
	"fmt"
	"testing"

	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/dp"
	"patterndp/internal/event"
	"patterndp/internal/runtime"
	"patterndp/internal/wire"
)

// TestIngestBatchAllocs pins the server's steady-state ingest path at zero
// allocations per batch: for a warmed stream, a batch travels from the wire
// bytes through the read loop, the interned decode, tenant namespacing, the
// shard hop and the pane tallies to the Ack without allocating, and so does
// the Ack. The peer speaks raw frames from reused buffers, so its own side
// allocates nothing either. Liveness and write deadlines are disabled: on the
// in-memory pipe each deadline is a fresh timer, which a TCP socket does not
// need.
//
// A batch's buffer is a fresh one only while the batches queued at the shard
// set a new high. An ingest is acked once served, so this closed-loop peer
// has one batch in flight, and the one-message ingest queue bounds it even
// for a peer that pipelines: the warm-up reaches the steady state. A deeper
// queue reaches it as late as its depth stops growing.
func TestIngestBatchAllocs(t *testing.T) {
	pt, err := core.NewPatternType("secret", "t00", "t01")
	if err != nil {
		t.Fatal(err)
	}
	q, err := cep.ParseQuery("probe", "SEQ(t00, t01) WITHIN 10", 10)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := runtime.New(runtime.Config{
		Shards:      2,
		ShardBuffer: 1,
		WindowWidth: 10,
		MechanismFor: func(_ int, private []core.PatternType) (core.Mechanism, error) {
			return core.NewUniformPPM(dp.Epsilon(4), private...)
		},
		Private: []core.PatternType{pt},
		Targets: []cep.Query{q},
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	_, l := startServer(t, rt, Config{Heartbeat: -1})
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := wire.NewReader(conn)
	if err := wire.WriteFrame(conn, wire.THello, wire.AppendHello(nil, wire.Hello{Proto: wire.Version, Token: "alice"})); err != nil {
		t.Fatal(err)
	}
	if f, err := r.Next(); err != nil || f.Type != wire.TWelcome {
		t.Fatalf("handshake: %v, %v", f.Type, err)
	}

	// One stream, 16 types (enough for the shard to index its open pane),
	// and a batch spanning several windows.
	in := wire.Ingest{Events: make([]event.Event, 64)}
	for i := range in.Events {
		in.Events[i] = event.New(event.Type(fmt.Sprintf("t%02d", i%16)), 0).WithSource("s1")
	}
	var ts event.Timestamp
	var frame []byte
	batch := func() {
		in.Req++
		for i := range in.Events {
			in.Events[i].Time = ts
			ts++
		}
		frame = wire.AppendIngestFrame(frame[:0], in)
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		f, err := r.Next()
		if err != nil || f.Type != wire.TAck {
			t.Fatalf("ingest %d: got %v, %v; want an ack", in.Req, f.Type, err)
		}
		if ack, err := wire.DecodeAck(f.Payload); err != nil || ack.Req != in.Req || ack.N != uint64(len(in.Events)) {
			t.Fatalf("ingest %d: ack %+v, %v", in.Req, ack, err)
		}
	}
	for i := 0; i < 100; i++ {
		batch()
	}
	if allocs := testing.AllocsPerRun(200, batch); allocs != 0 {
		t.Errorf("an ingest batch of a warmed stream allocates %v times, want 0", allocs)
	}
}
