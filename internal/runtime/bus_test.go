package runtime

import (
	"fmt"
	goruntime "runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"patterndp/internal/event"
)

// recordingSink keeps a copy of every batch it is delivered and announces
// each one's size, so a test can wait for the answers it is owed instead of
// sleeping.
type recordingSink struct {
	mu        sync.Mutex
	batches   [][]Answer
	delivered chan int // cap: every Deliver the test can cause
}

func (r *recordingSink) Deliver(batch []Answer) {
	r.mu.Lock()
	r.batches = append(r.batches, append([]Answer(nil), batch...))
	r.mu.Unlock()
	r.delivered <- len(batch)
}

// await receives Deliver announcements until they add up to owed answers and
// returns how many Deliver calls that took.
func (r *recordingSink) await(t *testing.T, owed int) (calls int) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for got := 0; got < owed; calls++ {
		select {
		case n := <-r.delivered:
			got += n
		case <-timeout:
			t.Fatalf("sink took %d of %d answers", got, owed)
		}
	}
	return calls
}

// released is what a subscriber can tell one answer from another by.
type released struct {
	Stream, Query string
	WindowIndex   int
	Detected      bool
}

func releasedOf(a Answer) released {
	return released{a.Stream, a.Query, a.WindowIndex, a.Detected}
}

func sortReleased(rs []released) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.Stream != b.Stream {
			return a.Stream < b.Stream
		}
		if a.Query != b.Query {
			return a.Query < b.Query
		}
		return a.WindowIndex < b.WindowIndex
	})
}

// TestBusOneDeliverPerMessage pins the publish path's shape and content: a
// sink sees each shard message's answers as one batch — so an IngestBatch
// costs it at most one Deliver per shard — every batch comes from one shard
// with each stream's windows in order, and what it receives is exactly what a
// channel Subscription on the same runtime receives.
func TestBusOneDeliverPerMessage(t *testing.T) {
	const shards, streams, rounds = 2, 6, 8
	rt, err := New(testConfig(t, shards))
	if err != nil {
		t.Fatal(err)
	}
	queries := len(rt.Queries())
	// Each round is one Deliver per shard at most; Close flushes each stream's
	// trailing window in a message of its own.
	newSink := func() *recordingSink {
		return &recordingSink{delivered: make(chan int, rounds*shards+streams)}
	}
	all, named := newSink(), newSink()
	if _, err := rt.Attach("", all); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Attach("has-a", named); err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("")
	if err != nil {
		t.Fatal(err)
	}
	var viaChannel []released
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for a := range sub.C() {
			viaChannel = append(viaChannel, releasedOf(a))
		}
	}()

	// Round w holds window w's events for every stream, so it closes window
	// w-1 on each: from the second round on, every round owes every sink one
	// window per stream.
	for w := 0; w < rounds; w++ {
		var evs []event.Event
		for s := 0; s < streams; s++ {
			base := event.Timestamp(w * 10)
			evs = append(evs, event.New("a", base+1).WithSource(fmt.Sprintf("s%d", s)))
			if (w+s)%2 == 0 {
				evs = append(evs, event.New("b", base+5).WithSource(fmt.Sprintf("s%d", s)))
			}
		}
		if err := rt.IngestBatch(evs); err != nil {
			t.Fatal(err)
		}
		if w == 0 {
			continue
		}
		if calls := all.await(t, streams*queries); calls > shards {
			t.Errorf("round %d: subscribe-all sink took %d Delivers, want at most one per shard (%d)", w, calls, shards)
		}
		if calls := named.await(t, streams); calls > shards {
			t.Errorf("round %d: has-a sink took %d Delivers, want at most one per shard (%d)", w, calls, shards)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	<-drained

	var viaAll, viaNamed, wantNamed []released
	for name, sink := range map[string]*recordingSink{"subscribe-all": all, "has-a": named} {
		next := map[string]int{} // stream+query → next window index owed
		for _, batch := range sink.batches {
			for _, a := range batch {
				if a.Shard != batch[0].Shard {
					t.Fatalf("%s sink: one batch mixes shards %d and %d", name, batch[0].Shard, a.Shard)
				}
				key := a.Stream + "|" + a.Query
				if a.WindowIndex != next[key] {
					t.Fatalf("%s sink: %s window %d delivered, %d owed next", name, key, a.WindowIndex, next[key])
				}
				next[key]++
				if sink == all {
					viaAll = append(viaAll, releasedOf(a))
				} else {
					viaNamed = append(viaNamed, releasedOf(a))
				}
			}
		}
	}
	for _, r := range viaChannel {
		if r.Query == "has-a" {
			wantNamed = append(wantNamed, r)
		}
	}
	if want := streams * queries * rounds; len(viaChannel) != want {
		t.Fatalf("channel subscription took %d answers, want %d", len(viaChannel), want)
	}
	for _, rs := range [][]released{viaAll, viaNamed, viaChannel, wantNamed} {
		sortReleased(rs)
	}
	if fmt.Sprint(viaAll) != fmt.Sprint(viaChannel) {
		t.Errorf("subscribe-all sink and channel subscription disagree:\n sink    %v\n channel %v", viaAll, viaChannel)
	}
	if fmt.Sprint(viaNamed) != fmt.Sprint(wantNamed) {
		t.Errorf("has-a sink and the channel's has-a answers disagree:\n sink    %v\n channel %v", viaNamed, wantNamed)
	}
}

// TestBusCancelReleasesBlockedDeliver: a channel subscriber that stopped
// reading holds its shard inside Deliver, part-way through a batch — that is
// the backpressure — and Cancel must let the publish return.
func TestBusCancelReleasesBlockedDeliver(t *testing.T) {
	b := newBus(1)
	sub := b.subscribe("")
	published := make(chan struct{})
	go func() {
		defer close(published)
		b.publish(b.table.Load(), make([]Answer, 5), nil, new(gather))
	}()
	for len(sub.C()) == 0 { // the first answer is buffered; the second cannot be
		goruntime.Gosched()
	}
	select {
	case <-published:
		t.Fatal("publish returned with the subscriber's buffer full and 4 answers undelivered")
	default:
	}
	sub.Cancel()
	select {
	case <-published:
	case <-time.After(10 * time.Second):
		t.Fatal("Cancel did not release the Deliver blocked mid-batch")
	}
	if n := b.count(); n != 0 {
		t.Errorf("%d sinks attached after Cancel", n)
	}
}

// nullSink is the cheapest possible non-blocking Sink.
type nullSink struct{}

func (nullSink) Deliver([]Answer) {}

// TestBusChurnRace attaches, subscribes, detaches and cancels against live
// publishing from every shard — run under -race it is the copy-on-write
// table's check — and ends with nothing attached and no publisher stuck
// behind a subscriber that never read.
func TestBusChurnRace(t *testing.T) {
	const producers, churners, laps = 4, 4, 200
	rt, err := New(testConfig(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// One message, and so one publish, per event.
			for _, e := range streamEvents(fmt.Sprintf("s%d", p), 400) {
				if err := rt.Ingest(e); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			query := []string{"", "has-a", "seq-ab"}[c%3]
			for i := 0; i < laps; i++ {
				detach, err := rt.Attach(query, nullSink{})
				if err != nil {
					t.Error(err)
					return
				}
				// Never read: it backpressures its shard until cancelled.
				sub, err := rt.Subscribe(query)
				if err != nil {
					t.Error(err)
					return
				}
				goruntime.Gosched()
				detach()
				detach() // idempotent
				sub.Cancel()
			}
		}(c)
	}
	wg.Wait()
	if n := rt.Snapshot().Subscriptions; n != 0 {
		t.Errorf("%d subscriptions open after the churn", n)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBusPublishGathersPerQuery drives publish directly with many subscribed
// queries: every sink gets one Deliver holding exactly its query's answers in
// batch order, unsubscribed queries reach only the subscribe-all sink, and the
// grouping survives the table renumbering its slots on a detach.
func TestBusPublishGathersPerQuery(t *testing.T) {
	const queries, windows = 300, 3
	b := newBus(1)
	newSink := func() *recordingSink { return &recordingSink{delivered: make(chan int, 2)} }
	name := func(q int) string { return fmt.Sprintf("q%d", q) }
	all := newSink()
	b.attach("", all, nil)
	sinks := make([][]*recordingSink, queries) // odd queries stay unsubscribed
	detach := make([]func(), queries)
	for q := 0; q < queries; q += 2 {
		sinks[q] = []*recordingSink{newSink()}
		detach[q] = b.attach(name(q), sinks[q][0], nil)
	}
	second := newSink()
	sinks[4] = append(sinks[4], second)
	b.attach(name(4), second, nil)

	var batch []Answer
	for w := 0; w < windows; w++ {
		for q := 0; q < queries; q++ {
			a := Answer{Stream: "s"}
			a.Query, a.WindowIndex = name(q), w
			batch = append(batch, a)
		}
	}
	g := new(gather)
	check := func(round int) {
		t.Helper()
		// As a shard does: one table load, each answer's slot resolved
		// against it.
		tab, slots := b.table.Load(), make([]int32, len(batch))
		for i := range batch {
			slots[i] = tab.slotOf(batch[i].Query)
		}
		b.publish(tab, batch, slots, g)
		if got := all.batches[round]; len(all.batches) != round+1 || len(got) != len(batch) {
			t.Fatalf("subscribe-all sink: %d Delivers, last of %d answers, want %d of %d", len(all.batches), len(got), round+1, len(batch))
		}
		for q, ss := range sinks {
			for _, s := range ss {
				if len(s.batches) != round+1 {
					t.Fatalf("%s sink took %d Delivers after %d publishes", name(q), len(s.batches), round+1)
				}
				got := s.batches[round]
				if len(got) != windows {
					t.Fatalf("%s sink took %d answers, want %d", name(q), len(got), windows)
				}
				for w, a := range got {
					if a.Query != name(q) || a.WindowIndex != w {
						t.Fatalf("%s sink answer %d is %s window %d", name(q), w, a.Query, a.WindowIndex)
					}
				}
			}
		}
		for slot, left := range g.bySlot {
			if len(left) != 0 {
				t.Fatalf("gather slot %d holds %d answers between publishes", slot, len(left))
			}
		}
		if len(g.filled) != 0 {
			t.Fatalf("gather lists %d filled slots between publishes", len(g.filled))
		}
	}
	check(0)
	for q := 0; q < queries/2; q += 2 { // renumbers the surviving queries' slots
		detach[q]()
		sinks[q] = sinks[q][1:]
	}
	check(1)
	if want := 1 + queries/4 + 1; b.count() != want {
		t.Errorf("%d sinks attached, want %d", b.count(), want)
	}
}

// BenchmarkBusPublish measures one publish of a fixed 256-answer batch — 256
// registered queries, one window — as the number of subscribed queries grows:
// the gather is one pass over slots the shard resolved once, so the per-answer
// cost must stay flat rather than grow with the subscriber table.
func BenchmarkBusPublish(b *testing.B) {
	const registered = 256
	batch := make([]Answer, registered)
	for q := range batch {
		batch[q].Query = fmt.Sprintf("tenant%d/query%d", q/8, q%8)
	}
	for _, subscribed := range []int{4, 32, 256} {
		b.Run(fmt.Sprintf("subscribed=%d", subscribed), func(b *testing.B) {
			bus := newBus(1)
			for q := 0; q < subscribed; q++ {
				bus.attach(batch[q].Query, nullSink{}, nil)
			}
			tab, slots := bus.table.Load(), make([]int32, len(batch))
			for i := range batch {
				slots[i] = tab.slotOf(batch[i].Query)
			}
			g := new(gather)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bus.publish(tab, batch, slots, g)
			}
		})
	}
}
