package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	goruntime "runtime"
	"testing"
	"time"

	"patterndp/internal/dp"
	"patterndp/internal/durable"
	"patterndp/internal/event"
	"patterndp/internal/metrics"
	"patterndp/internal/runtime"
	"patterndp/internal/wire"
)

// eagerRing is the replay ring with all of its storage allocated up front:
// the same slot arithmetic over one flat slice. It is the reference
// TestChunkedRingMatchesReference holds subState's chunked storage to.
type eagerRing struct {
	id                 uint64
	buf                []wire.Answer // seq s lives at buf[(s-1)%len]
	head, cursor, base uint64
	dropped            int64 // evictions that outran the cursor
}

func newEagerRing(id uint64, capacity int) *eagerRing {
	return &eagerRing{id: id, buf: make([]wire.Answer, capacity), cursor: 1, base: 1}
}

func (m *eagerRing) deliver(c *sessionCore, batch []runtime.Answer) {
	n := uint64(len(m.buf))
	for i := range batch {
		a := &batch[i]
		stream, ok := c.visible(a)
		if !ok {
			continue
		}
		m.head++
		m.buf[(m.head-1)%n] = wire.Answer{
			Sub: m.id, Seq: m.head, Stream: stream, Query: a.Query,
			Epoch: uint64(a.Epoch), WindowIndex: uint64(a.WindowIndex),
			Start: int64(a.Start), End: int64(a.End),
			Detected: a.Detected, Suppressed: a.Suppressed,
			SpentEpsilon: float64(a.SpentEpsilon), RemainingEpsilon: float64(a.RemainingEpsilon),
			TraceNanos: a.TraceNanos,
		}
		if m.head > n && m.cursor <= m.head-n {
			m.dropped++
		}
	}
}

func (m *eagerRing) oldest() uint64 {
	o := uint64(1)
	if n := uint64(len(m.buf)); m.head > n {
		o = m.head - n + 1
	}
	return max(o, m.base)
}

func (m *eagerRing) drain(out *outbox) (popped int) {
	for m.cursor <= m.head && len(out.buf) < wire.BufferSize {
		if oldest := m.oldest(); m.cursor < oldest {
			out.add(&wire.Answer{Sub: m.id, Seq: oldest - 1, Gap: true, GapFrom: m.cursor})
			m.cursor = oldest
		} else {
			out.add(&m.buf[(m.cursor-1)%uint64(len(m.buf))])
			m.cursor++
		}
		popped++
	}
	return popped
}

func (m *eagerRing) rewind(lastSeq uint64) uint64 {
	m.cursor = min(lastSeq+1, m.head+1)
	return m.head + 1 - m.cursor
}

func (m *eagerRing) export(query string) durable.SessionSub {
	out := durable.SessionSub{ID: m.id, Query: query, Head: m.head, Cursor: m.cursor}
	if m.head > 0 {
		from := m.oldest()
		out.RingStart = from
		out.Ring = make([][]byte, 0, m.head-from+1)
		for s := from; s <= m.head; s++ {
			out.Ring = append(out.Ring, wire.AppendAnswer(nil, m.buf[(s-1)%uint64(len(m.buf))]))
		}
	}
	return out
}

func (m *eagerRing) reseed(sub durable.SessionSub) {
	m.head = sub.Head
	m.cursor = min(max(sub.Cursor, 1), sub.Head+1)
	m.base = sub.Head + 1
	n := uint64(len(m.buf))
	lo := sub.RingStart
	if len(sub.Ring) == 0 || sub.Head == 0 {
		return
	}
	if hi := lo + uint64(len(sub.Ring)) - 1; hi != sub.Head || lo == 0 || lo > sub.Head {
		return
	}
	if floor := sub.Head + 1 - min(n, sub.Head); lo < floor {
		lo = floor
	}
	base := lo
	for seq := lo; seq <= sub.Head; seq++ {
		a, err := wire.DecodeAnswer(sub.Ring[seq-sub.RingStart])
		if err != nil {
			base = seq + 1
			continue
		}
		m.buf[(seq-1)%n] = a
	}
	m.base = base
}

// ringAnswers is a batch of n runtime answers as a shard would deliver them to
// tenant alice's subscribe-all ring: her own answers mixed with bob's, which
// her ring must skip. Query names reach her as they are, delimited or not.
func ringAnswers(rng *rand.Rand, n int) []runtime.Answer {
	streams := []string{"alice/s1", "alice/s2", "bob/s1"}
	queries := []string{"probe", "near", "ops/probe"}
	batch := make([]runtime.Answer, n)
	for i := range batch {
		a := &batch[i]
		a.Stream, a.Query = streams[rng.Intn(len(streams))], queries[rng.Intn(len(queries))]
		a.Epoch = runtime.Epoch(rng.Intn(4))
		a.WindowIndex = rng.Intn(1 << 20)
		a.Start = event.Timestamp(rng.Int63n(1 << 30))
		a.End = a.Start + 10
		a.Detected, a.Suppressed = rng.Intn(2) == 0, rng.Intn(8) == 0
		a.SpentEpsilon, a.RemainingEpsilon = dp.Epsilon(0.25*float64(rng.Intn(40))), dp.Epsilon(rng.Intn(100))
		a.TraceNanos = rng.Int63n(2) * rng.Int63()
	}
	return batch
}

// TestChunkedRingMatchesReference drives seeded random operation sequences
// through subState and through eagerRing side by side — Deliver batches
// mixing own and foreign answers (some several times the ring's capacity),
// drains into outboxes with random room left, rewinds to random positions,
// and export → reseed into a fresh ring of the subtest's capacity or a
// smaller one (which may be larger than the ring exported from) — and
// requires identical drained bytes, pop counts, replay backlogs, eviction
// counts and spill records after every step. The capacities straddle the
// chunk size: below, at, just over, several chunks and not a multiple, and
// the bench's 8192.
func TestChunkedRingMatchesReference(t *testing.T) {
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	capacities := []int{1, 255, 256, 257, 1000, 8192} // ascending
	for ci, capacity := range capacities {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			fresh := func(capacity int) (*Server, *subState, *eagerRing) {
				s, err := New(Config{Runtime: rt, Auth: TokenAuth(0), ReplayBuffer: capacity})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(s.Close)
				c := s.newCore(s.tenantFor(Tenant{ID: "alice"}), "alice/", nil)
				return s, newSubState(c, 7, ""), newEagerRing(7, capacity)
			}
			s, st, ref := fresh(capacity)
			for op := 0; op < 400; op++ {
				switch k := rng.Intn(10); {
				case k < 4:
					n := rng.Intn(24)
					if rng.Intn(6) == 0 {
						n = rng.Intn(3*capacity + 2)
					}
					batch := ringAnswers(rng, n)
					st.Deliver(batch)
					ref.deliver(st.core, batch)
				case k < 7:
					// Room for anything from one frame to a whole flush; now
					// and then drain dry the way the writer does.
					dry := rng.Intn(4) == 0
					for {
						prefill := bytes.Repeat([]byte{0xA5}, rng.Intn(wire.BufferSize))
						got, want := outbox{buf: bytes.Clone(prefill)}, outbox{buf: prefill}
						n, wantN := st.drain(&got), ref.drain(&want)
						if n != wantN || got.answers != want.answers || got.gaps != want.gaps {
							t.Fatalf("op %d: drain popped %d (%d answers, %d gaps), reference %d (%d, %d)",
								op, n, got.answers, got.gaps, wantN, want.answers, want.gaps)
						}
						if !bytes.Equal(got.buf, want.buf) {
							t.Fatalf("op %d: drained frames differ from the reference ring's", op)
						}
						if n == 0 || !dry {
							break
						}
					}
				case k < 9:
					last := uint64(rng.Int63n(int64(ref.head) + 3))
					if got, want := st.rewind(last), ref.rewind(last); got != want {
						t.Fatalf("op %d: rewind(%d) backlog %d, reference %d", op, last, got, want)
					}
				default:
					got, want := st.export(), ref.export(st.query)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("op %d: export differs from the reference ring's:\n got %+v\nwant %+v", op, got, want)
					}
					// Half the time the subtest's own capacity, so a run does
					// not ratchet down to the smallest ring and stay there.
					next := capacity
					if rng.Intn(2) == 0 {
						next = capacities[rng.Intn(ci+1)]
					}
					s, st, ref = fresh(next)
					st.reseed(got)
					ref.reseed(want)
				}
				if got := tenantStats(t, s, "alice").AnswersDropped; got != ref.dropped {
					t.Fatalf("op %d: answersDropped %d, reference %d", op, got, ref.dropped)
				}
			}
		})
	}
}

// TestRingStorageFollowsRetention pins what a replay ring costs: a Subscribe
// commits only the chunk table, storage grows one chunk per ringChunk answers
// kept, another tenant's traffic costs a subscribe-all ring nothing, and an
// imported spill allocates only for the tail it restores.
func TestRingStorageFollowsRetention(t *testing.T) {
	const capacity = 1 << 16
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	s, err := New(Config{Runtime: rt, Auth: TokenAuth(0), ReplayBuffer: capacity})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	alice := s.newCore(s.tenantFor(Tenant{ID: "alice"}), "alice/", nil)

	const subs = 64
	rings := make([]*subState, subs)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := range rings {
		rings[i] = newSubState(alice, uint64(i+1), "")
	}
	goruntime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / subs; per >= 4<<10 {
		t.Errorf("a ring of capacity %d allocates %d B at Subscribe, want under 4 KiB", capacity, per)
	}

	own := func(k int) []runtime.Answer {
		batch := make([]runtime.Answer, k)
		for i := range batch {
			batch[i].Stream, batch[i].Query, batch[i].WindowIndex = "alice/s1", "probe", i
		}
		return batch
	}
	for i, k := range []int{1, 255, 256, 257, 1000, 5000} {
		st := rings[i]
		st.Deliver(own(k))
		want := (k + ringChunk - 1) / ringChunk
		if got := st.slots() / ringChunk; got != int64(want) {
			t.Errorf("%d answers kept: %d chunks allocated, want %d", k, got, want)
		}
	}

	foreign := make([]runtime.Answer, 2000)
	for i := range foreign {
		foreign[i].Stream, foreign[i].Query = "bob/s1", "probe"
		if i%2 == 1 {
			foreign[i].Stream = "bob/s2"
		}
	}
	st := rings[subs-1]
	st.Deliver(foreign)
	if st.head != 0 || st.slots() != 0 {
		t.Errorf("bob's traffic took %d seqs and %d slots in alice's subscribe-all ring, want none", st.head, st.slots())
	}

	var tail [][]byte
	for seq := uint64(1); seq <= 3; seq++ {
		tail = append(tail, wire.AppendAnswer(nil, wire.Answer{Sub: 1, Seq: seq, Stream: "s1", Query: "probe"}))
	}
	sp := &durable.SessionSpill{Sessions: []durable.SessionRecord{{
		Token: "parked", Tenant: "alice",
		Subs: []durable.SessionSub{{ID: 1, Head: 3, Cursor: 1, RingStart: 1, Ring: tail}},
	}}}
	if n := s.importSessions(sp); n != 1 {
		t.Fatalf("importSessions = %d", n)
	}
	// The rings above were never added to a core; the imported (parked) one
	// is the only ring the server holds.
	if got := s.Stats().ReplaySlots; got != ringChunk {
		t.Errorf("after importing a 3-entry spill the server holds %d slots, want one chunk (%d)", got, ringChunk)
	}
}

// TestReplaySlotsTracksRings checks Stats.ReplaySlots and the
// ppm_server_replay_slots gauge against the rings themselves: after traffic
// both equal the slots the live rings allocated — none for a tenant that saw
// none of it — and both return to zero once every session has retired.
func TestReplaySlotsTracksRings(t *testing.T) {
	const windows = 300 // 299 answers per subscription: two chunks each
	reg := metrics.NewRegistry()
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	s, l := startServer(t, rt, Config{Metrics: reg, ReplayBuffer: 1000})
	gauge := func() int64 {
		for _, se := range reg.Gather() {
			if se.Name == "ppm_server_replay_slots" {
				return int64(se.Value)
			}
		}
		t.Fatal("ppm_server_replay_slots not registered")
		return 0
	}
	held := func() (n int64) {
		for _, c := range s.coreList() {
			for _, st := range c.snapshot(nil) {
				st.mu.Lock()
				n += st.slots()
				st.mu.Unlock()
			}
		}
		return n
	}

	alice, bob := dialTenant(t, l, "alice"), dialTenant(t, l, "bob")
	var subs []*ClientSub
	for _, q := range []string{"", "probe"} {
		sub, err := alice.Subscribe(q, windows)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	if _, err := bob.Subscribe("", 1); err != nil {
		t.Fatal(err)
	}
	for w := int64(0); w < windows; w++ {
		if _, err := alice.Ingest(windowEvents("s1", w)); err != nil {
			t.Fatal(err)
		}
	}
	for _, sub := range subs {
		for i := 0; i < windows-1; i++ {
			select {
			case <-sub.C:
			case <-time.After(10 * time.Second):
				t.Fatalf("%d of %d answers delivered", i, windows-1)
			}
		}
	}
	const want = 2 * 2 * ringChunk // alice's two rings, two chunks each; bob's none
	if got := s.Stats().ReplaySlots; got != want || got != held() {
		t.Errorf("Stats.ReplaySlots = %d, rings hold %d, want %d", got, held(), want)
	}
	if got := gauge(); got != want {
		t.Errorf("ppm_server_replay_slots = %d, want %d", got, want)
	}

	alice.Close()
	bob.Close()
	waitFor(t, 10*time.Second, "every session to retire", func() bool { return s.Stats().ReplaySlots == 0 })
	if got := gauge(); got != 0 {
		t.Errorf("ppm_server_replay_slots = %d after every session retired", got)
	}
}

// TestNewRejectsNegativeReplayBuffer: a negative ring capacity is a
// configuration error at New, not a panic at the first Subscribe.
func TestNewRejectsNegativeReplayBuffer(t *testing.T) {
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	if s, err := New(Config{Runtime: rt, Auth: TokenAuth(0), ReplayBuffer: -1}); err == nil {
		s.Close()
		t.Fatal("New accepted ReplayBuffer -1")
	}
}

// BenchmarkSubscribe measures one Subscribe and one Unsubscribe round trip
// through the full serving stack over an in-memory connection, with the
// replay ring capacity the end-to-end benchmark uses. B/op (whole process,
// client included) is what a subscription commits before its first answer.
func BenchmarkSubscribe(b *testing.B) {
	rt := newTestRuntime(b, 0)
	defer rt.Close()
	_, l := startServer(b, rt, Config{ReplayBuffer: 8192})
	c := dialTenant(b, l, "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub, err := c.Subscribe("probe", 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Unsubscribe(sub); err != nil {
			b.Fatal(err)
		}
	}
}
