package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/event"
)

func testConfig(t *testing.T, shards int) Config {
	t.Helper()
	pt, err := core.NewPatternType("priv", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Shards:      shards,
		WindowWidth: 10,
		// Huge budget: perturbation is negligible, so released answers
		// must match ground truth and assertions stay deterministic.
		Mechanism: func(int) (core.Mechanism, error) {
			return core.NewUniformPPM(50, pt)
		},
		Private: []core.PatternType{pt},
		Targets: []cep.Query{
			{Name: "has-a", Pattern: cep.E("a"), Window: 10},
			{Name: "seq-ab", Pattern: cep.SeqTypes("a", "b"), Window: 10},
		},
		Seed: 7,
	}
}

// streamEvents builds one stream's events: an "a" in every window and a "b"
// in every even window, over the given number of windows.
func streamEvents(key string, windows int) []event.Event {
	var out []event.Event
	for w := 0; w < windows; w++ {
		base := event.Timestamp(w * 10)
		out = append(out, event.New("a", base+1).WithSource(key))
		if w%2 == 0 {
			out = append(out, event.New("b", base+5).WithSource(key))
		}
	}
	return out
}

// TestRuntimeMultiStreamOrdering is the acceptance scenario: >= 4 shards
// serving >= 4 concurrent streams under -race, with per-query answers
// arriving in window order per stream and matching ground truth.
func TestRuntimeMultiStreamOrdering(t *testing.T) {
	const streams, windows = 6, 20
	rt, err := New(testConfig(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("seq-ab")
	if err != nil {
		t.Fatal(err)
	}
	var got []Answer
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for a := range sub.C() {
			got = append(got, a)
		}
	}()

	var producers sync.WaitGroup
	for i := 0; i < streams; i++ {
		producers.Add(1)
		go func(i int) {
			defer producers.Done()
			for _, e := range streamEvents(fmt.Sprintf("stream-%d", i), windows) {
				if err := rt.Ingest(e); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	producers.Wait()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	consumer.Wait()

	if len(got) != streams*windows {
		t.Fatalf("answers = %d, want %d", len(got), streams*windows)
	}
	next := make(map[string]int)
	for _, a := range got {
		if a.Query != "seq-ab" {
			t.Fatalf("subscription leaked query %q", a.Query)
		}
		if a.WindowIndex != next[a.Stream] {
			t.Fatalf("stream %s answer out of order: window %d, want %d", a.Stream, a.WindowIndex, next[a.Stream])
		}
		next[a.Stream]++
		if want := a.WindowIndex%2 == 0; a.Detected != want {
			t.Errorf("stream %s window %d detected=%t, want %t", a.Stream, a.WindowIndex, a.Detected, want)
		}
	}
	st := rt.Snapshot()
	tot := st.Totals()
	if want := int64(streams * (windows + windows/2)); tot.EventsIn != want {
		t.Errorf("EventsIn = %d, want %d", tot.EventsIn, want)
	}
	if want := int64(streams * windows); tot.WindowsClosed != want {
		t.Errorf("WindowsClosed = %d, want %d", tot.WindowsClosed, want)
	}
	// Two queries per window, one of them subscribed: only its answers are
	// assembled and handed to a sink.
	if want := int64(streams * windows); tot.AnswersEmitted != want {
		t.Errorf("AnswersEmitted = %d, want %d", tot.AnswersEmitted, want)
	}
	if tot.Streams != streams {
		t.Errorf("Streams = %d, want %d", tot.Streams, streams)
	}
	if b := st.Balance(); b.N != 4 {
		t.Errorf("Balance over %d shards, want 4", b.N)
	}
}

// TestRuntimeStreamAffinity verifies all of one stream's windows are served
// by a single shard (the precondition for per-stream order).
func TestRuntimeStreamAffinity(t *testing.T) {
	rt, err := New(testConfig(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("")
	if err != nil {
		t.Fatal(err)
	}
	shardOf := make(map[string]map[int]bool)
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for a := range sub.C() {
			if shardOf[a.Stream] == nil {
				shardOf[a.Stream] = make(map[int]bool)
			}
			shardOf[a.Stream][a.Shard] = true
		}
	}()
	for i := 0; i < 16; i++ {
		for _, e := range streamEvents(fmt.Sprintf("s%d", i), 4) {
			if err := rt.Ingest(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	consumer.Wait()
	if len(shardOf) != 16 {
		t.Fatalf("streams seen = %d, want 16", len(shardOf))
	}
	for key, shards := range shardOf {
		if len(shards) != 1 {
			t.Errorf("stream %s served by %d shards", key, len(shards))
		}
	}
}

// TestRuntimeDropLateCounted feeds a straggler past its window and checks the
// dropped-late counter.
func TestRuntimeDropLateCounted(t *testing.T) {
	rt, err := New(testConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range sub.C() {
		}
	}()
	for _, e := range []event.Event{
		event.New("a", 1), event.New("a", 15), event.New("b", 2), // b@2 is late
	} {
		if err := rt.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	tot := rt.Snapshot().Totals()
	if tot.DroppedLate != 1 {
		t.Errorf("DroppedLate = %d, want 1", tot.DroppedLate)
	}
	if tot.EventsIn != 3 {
		t.Errorf("EventsIn = %d, want 3", tot.EventsIn)
	}
}

// stallSink is an Attach sink whose first Deliver blocks the shard serving
// it until release is closed; entered closes when that Deliver begins.
type stallSink struct {
	once             sync.Once
	entered, release chan struct{}
}

func (s *stallSink) Deliver([]Answer) {
	s.once.Do(func() { close(s.entered) })
	<-s.release
}

// TestRuntimeClosedSemantics checks Ingest, Close, Subscribe, and control
// ops after Close, and that subscriptions close with a nil Err.
func TestRuntimeClosedSemantics(t *testing.T) {
	rt, err := New(testConfig(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("has-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, open := <-sub.C(); open {
		t.Error("subscription still open after Close")
	}
	if err := sub.Err(); err != nil {
		t.Errorf("Err after runtime Close = %v, want nil (normal end of stream)", err)
	}
	if err := rt.Ingest(event.New("a", 1)); err != ErrClosed {
		t.Errorf("Ingest after Close = %v, want ErrClosed", err)
	}
	if err := rt.Close(); err != ErrClosed {
		t.Errorf("second Close = %v, want ErrClosed", err)
	}
	if _, err := rt.Subscribe("has-a"); err != ErrClosed {
		t.Errorf("Subscribe after Close = %v, want ErrClosed", err)
	}
	if _, err := rt.RegisterQuery(cep.Query{Name: "q", Pattern: cep.E("a"), Window: 10}); err != ErrClosed {
		t.Errorf("RegisterQuery after Close = %v, want ErrClosed", err)
	}
}

// TestRuntimeRegisterQueryLive adds a query mid-serve and checks it starts
// answering on later windows, with answers stamped by its epoch.
func TestRuntimeRegisterQueryLive(t *testing.T) {
	rt, err := New(testConfig(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	ep, err := rt.RegisterQuery(cep.Query{Name: "late-q", Pattern: cep.E("b"), Window: 10})
	if err != nil {
		t.Fatal(err)
	}
	if ep != 1 {
		t.Errorf("first registration epoch = %d, want 1", ep)
	}
	sub, err := rt.Subscribe("late-q")
	if err != nil {
		t.Fatal(err)
	}
	var n int
	var badEpoch bool
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for a := range sub.C() {
			n++
			if a.Epoch < ep {
				badEpoch = true
			}
		}
	}()
	for _, e := range streamEvents("s", 5) {
		if err := rt.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	consumer.Wait()
	if n != 5 {
		t.Errorf("late-q answers = %d, want 5", n)
	}
	if badEpoch {
		t.Errorf("answer released under an epoch before the query existed")
	}
}

// TestRuntimeSubscribeUnknownQuery is the regression test for subscriptions
// to nonexistent queries: they must fail instead of returning a channel that
// can never receive.
func TestRuntimeSubscribeUnknownQuery(t *testing.T) {
	rt, err := New(testConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.Subscribe("no-such-query"); !errors.Is(err, ErrUnknownQuery) {
		t.Fatalf("Subscribe(unknown) = %v, want ErrUnknownQuery", err)
	}
	if _, err := rt.Subscribe(""); err != nil {
		t.Fatalf("Subscribe(all) = %v, want nil", err)
	}
	if _, err := rt.Subscribe("has-a"); err != nil {
		t.Fatalf("Subscribe(known) = %v, want nil", err)
	}
}

// TestRuntimeSubscriptionCancel is the regression test for the subscriber
// leak: Cancel must remove the subscription from the bus, close the channel
// exactly once (idempotently, also under a concurrent publish), and report
// ErrSubscriptionCancelled.
func TestRuntimeSubscriptionCancel(t *testing.T) {
	rt, err := New(testConfig(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("has-a")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rt.bus.table.Load().of("has-a")); got != 1 {
		t.Fatalf("subscribers = %d, want 1", got)
	}
	// Cancel concurrently with live publishing: deliveries racing the
	// cancel must be either buffered or discarded, never a panic.
	var producers sync.WaitGroup
	for i := 0; i < 4; i++ {
		producers.Add(1)
		go func(i int) {
			defer producers.Done()
			for _, e := range streamEvents(fmt.Sprintf("s%d", i), 10) {
				if err := rt.Ingest(e); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	var cancels sync.WaitGroup
	for i := 0; i < 2; i++ { // concurrent double-cancel must be safe
		cancels.Add(1)
		go func() {
			defer cancels.Done()
			sub.Cancel()
		}()
	}
	cancels.Wait()
	producers.Wait()
	if got := len(rt.bus.table.Load().of("has-a")); got != 0 {
		t.Errorf("subscribers after Cancel = %d, want 0 (leaked)", got)
	}
	// The channel must close once buffered answers are drained.
	for range sub.C() {
	}
	if !errors.Is(sub.Err(), ErrSubscriptionCancelled) {
		t.Errorf("Err after Cancel = %v, want ErrSubscriptionCancelled", sub.Err())
	}
	sub.Cancel() // idempotent after close
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeControlChurnRace is the acceptance test for the dynamic control
// plane: concurrent Ingest with RegisterQuery/UnregisterQuery and
// RegisterPrivate/UnregisterPrivate churn across 4 shards under -race, with
// every released answer's epoch naming a query set that actually contained
// its query.
func TestRuntimeControlChurnRace(t *testing.T) {
	cfg := testConfig(t, 4)
	cfg.Mechanism = nil
	cfg.MechanismFor = func(_ int, private []core.PatternType) (core.Mechanism, error) {
		return core.NewUniformPPM(50, private...)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("")
	if err != nil {
		t.Fatal(err)
	}

	// history records, per epoch, the query set in force after that
	// epoch's change. Epoch 0 is the construction state.
	var historyMu sync.Mutex
	history := map[Epoch]map[string]bool{0: {"has-a": true, "seq-ab": true}}
	record := func(ep Epoch, queries []cep.Query) {
		set := make(map[string]bool, len(queries))
		for _, q := range queries {
			set[q.Name] = true
		}
		historyMu.Lock()
		history[ep] = set
		historyMu.Unlock()
	}

	var got []Answer
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for a := range sub.C() {
			got = append(got, a)
		}
	}()

	const streams, windows = 8, 40
	var producers sync.WaitGroup
	for i := 0; i < streams; i++ {
		producers.Add(1)
		go func(i int) {
			defer producers.Done()
			for _, e := range streamEvents(fmt.Sprintf("stream-%d", i), windows) {
				if err := rt.Ingest(e); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}

	// Control-plane churn concurrent with the producers: queries come and
	// go, and a private pattern type is registered and retired repeatedly
	// (forcing mechanism rebuilds).
	var controller sync.WaitGroup
	controller.Add(1)
	go func() {
		defer controller.Done()
		churnQ := cep.Query{Name: "churn-q", Pattern: cep.E("b"), Window: 10}
		churnPT, err := core.NewPatternType("churn-priv", "b")
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 20; i++ {
			ep, err := rt.RegisterQuery(churnQ)
			if err != nil {
				t.Error(err)
				return
			}
			record(ep, rt.Queries())
			if ep, err = rt.RegisterPrivate(churnPT); err != nil {
				t.Error(err)
				return
			}
			record(ep, rt.Queries())
			if ep, err = rt.UnregisterQuery(churnQ); err != nil {
				t.Error(err)
				return
			}
			record(ep, rt.Queries())
			if ep, err = rt.UnregisterPrivate(churnPT); err != nil {
				t.Error(err)
				return
			}
			record(ep, rt.Queries())
		}
	}()
	controller.Wait()

	// After the churn settles, a final registration must be answered for
	// all windows served after it: the ingests below happen after
	// RegisterQuery returned, so their windows close under epoch >= final.
	finalEp, err := rt.RegisterQuery(cep.Query{Name: "final-q", Pattern: cep.E("a"), Window: 10})
	if err != nil {
		t.Fatal(err)
	}
	record(finalEp, rt.Queries())
	producers.Wait()
	for _, e := range streamEvents("post-churn", 3) {
		if err := rt.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	consumer.Wait()

	finals := 0
	for _, a := range got {
		set, ok := history[a.Epoch]
		if !ok {
			t.Fatalf("answer for %q stamped with unknown epoch %d", a.Query, a.Epoch)
		}
		if !set[a.Query] {
			t.Fatalf("answer for %q released under epoch %d whose query set %v does not contain it",
				a.Query, a.Epoch, set)
		}
		if a.Stream == "post-churn" {
			if a.Epoch < finalEp {
				t.Fatalf("post-churn answer served under epoch %d < registration epoch %d", a.Epoch, finalEp)
			}
			if a.Query == "final-q" {
				finals++
			}
		}
	}
	if finals != 3 {
		t.Errorf("final-q answers on post-churn stream = %d, want 3", finals)
	}
	if got := rt.Snapshot().Epoch; got != finalEp {
		t.Errorf("Snapshot epoch = %d, want %d", got, finalEp)
	}
}

// TestRuntimeUnregisterLastQuery drains the query set to zero and back:
// windows closed with no query registered are cut but answer nothing, and
// serving resumes when a query returns.
func TestRuntimeUnregisterLastQuery(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Targets = cfg.Targets[:1] // only has-a
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("")
	if err != nil {
		t.Fatal(err)
	}
	var got []Answer
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for a := range sub.C() {
			got = append(got, a)
		}
	}()
	if _, err := rt.UnregisterQuery(cep.Query{Name: "has-a"}); err != nil {
		t.Fatal(err)
	}
	for _, e := range streamEvents("s", 3) {
		if err := rt.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.UnregisterQuery(cep.Query{Name: "has-a"}); !errors.Is(err, ErrUnknownQuery) {
		t.Fatalf("double unregister = %v, want ErrUnknownQuery", err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	consumer.Wait()
	if len(got) != 0 {
		t.Errorf("answers with no query registered = %d, want 0", len(got))
	}
	if tot := rt.Snapshot().Totals(); tot.WindowsClosed != 3 {
		t.Errorf("WindowsClosed = %d, want 3 (windows still cut)", tot.WindowsClosed)
	}
}

// TestRuntimePrivateControl checks the private-set control surface:
// RegisterPrivate requires MechanismFor, the last private type cannot be
// unregistered, and unknown names error.
func TestRuntimePrivateControl(t *testing.T) {
	rt, err := New(testConfig(t, 1)) // static Mechanism factory
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pt, err := core.NewPatternType("extra", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RegisterPrivate(pt); !errors.Is(err, ErrStaticMechanism) {
		t.Errorf("RegisterPrivate with static factory = %v, want ErrStaticMechanism", err)
	}
	if _, err := rt.UnregisterPrivate(pt); !errors.Is(err, ErrUnknownPrivate) {
		t.Errorf("UnregisterPrivate(unknown) = %v, want ErrUnknownPrivate", err)
	}
	if _, err := rt.UnregisterPrivate(core.PatternType{Name: "priv"}); !errors.Is(err, ErrLastPrivate) {
		t.Errorf("UnregisterPrivate(last) = %v, want ErrLastPrivate", err)
	}
	if got := len(rt.ctl.Load().private); got != 1 {
		t.Errorf("PrivateTypes = %d, want 1", got)
	}
	if got := rt.Epoch(); got != 0 {
		t.Errorf("failed mutations consumed epochs: Epoch = %d, want 0", got)
	}
}

// TestRuntimeIngestContextCancel wedges a shard behind an undrained
// subscription (its buffer — the 64-slot default — fills, publish blocks,
// then the 1-slot ingest channel fills), then checks a blocked IngestContext
// returns the context error — and that cancelling the subscription unwedges
// serving so Close completes.
func TestRuntimeIngestContextCancel(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.ShardBuffer = 1
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("") // never drained: publishing blocks serving
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		// Enough events to close windows and wedge: publish blocks, the
		// shard channel fills, and some IngestContext call blocks.
		for i := 0; ; i++ {
			if err := rt.IngestContext(ctx, event.New("a", event.Timestamp(i*10))); err != nil {
				errc <- err
				return
			}
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the producer wedge
	// Status reads must not block behind the backpressured delivery the
	// shard is stuck in.
	errDone := make(chan error, 1)
	go func() { errDone <- sub.Err() }()
	select {
	case e := <-errDone:
		if e != nil {
			t.Errorf("Err on a live subscription = %v, want nil", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Err blocked behind a backpressured delivery")
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("IngestContext = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("IngestContext still blocked after cancel")
	}
	// Cancelling the stuck subscription releases the blocked publish, so
	// the runtime can drain and close.
	sub.Cancel()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeCloseContext checks the bounded close: with serving wedged
// behind an undrained subscription, CloseContext returns the context error
// while the drain continues in the background and completes once the
// subscription is cancelled.
func TestRuntimeCloseContext(t *testing.T) {
	rt, err := New(testConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("")
	if err != nil {
		t.Fatal(err)
	}
	// Enough windows that the undrained subscription buffer (default 64)
	// fills and publishing wedges the drain.
	for _, e := range streamEvents("s", 60) {
		if err := rt.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := rt.CloseContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CloseContext = %v, want context.DeadlineExceeded", err)
	}
	if err := rt.Close(); err != ErrClosed {
		t.Fatalf("Close after CloseContext = %v, want ErrClosed", err)
	}
	if err := rt.Err(); err != nil {
		t.Errorf("Err before the drain completed = %v, want nil", err)
	}
	sub.Cancel()
	select {
	case <-rt.Done(): // background drain finished
	case <-time.After(5 * time.Second):
		t.Fatal("drain never completed after subscription cancel")
	}
	if err := rt.Err(); err != nil {
		t.Errorf("drain finished with error %v", err)
	}
}

// TestRuntimeCloseContextWedgedProducer pins the bounded-wait contract under
// the worst wedge: a producer blocked inside Ingest holds the runtime lock,
// so the close sequence cannot even mark the runtime closed — CloseContext
// must still return when its context does.
func TestRuntimeCloseContextWedgedProducer(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.ShardBuffer = 1
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("") // never drained
	if err != nil {
		t.Fatal(err)
	}
	wedged := make(chan struct{})
	go func() {
		defer close(wedged)
		// Blocks once the subscriber buffer and the ingest channel fill;
		// unwedged below by the subscription cancel.
		for i := 0; i < 200; i++ {
			if rt.Ingest(event.New("a", event.Timestamp(i*10))) != nil {
				return
			}
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the producer wedge
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := rt.CloseContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CloseContext under a wedged producer = %v, want context.DeadlineExceeded", err)
	}
	sub.Cancel()
	<-wedged
	select {
	case <-rt.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("drain never completed after unwedging")
	}
}

// TestRuntimeDuplicateConfigNames is the regression test for duplicate names
// in Config.Targets: they must collapse to one registration (last wins), so
// a later UnregisterQuery cannot strand a stale duplicate that would fail
// the shards' epoch apply.
func TestRuntimeDuplicateConfigNames(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Targets = append(cfg.Targets, cep.Query{Name: "has-a", Pattern: cep.E("a"), Window: 10})
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rt.Queries()); got != 2 {
		t.Fatalf("Queries = %d, want 2 (duplicate collapsed)", got)
	}
	if _, err := rt.UnregisterQuery(cep.Query{Name: "has-a"}); err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range sub.C() {
		}
	}()
	// Serving windows past the unregister exercises each shard's epoch
	// apply; a stale duplicate would kill the shards here.
	for _, e := range streamEvents("s", 5) {
		if err := rt.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if tot := rt.Snapshot().Totals(); tot.Failed {
		t.Error("shards failed after unregistering a config-duplicated query")
	}
}

// TestRuntimeDeterministicPerStream pins cross-run determinism: identical
// seeds and a single producer per stream must yield identical per-stream
// answer sequences regardless of shard count.
func TestRuntimeDeterministicPerStream(t *testing.T) {
	run := func(shards int) map[string][]bool {
		cfg := testConfig(t, shards)
		cfg.Mechanism = func(int) (core.Mechanism, error) {
			pt := cfg.Private[0]
			return core.NewUniformPPM(1, pt) // low budget: real perturbation
		}
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := rt.Subscribe("has-a")
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]bool)
		var consumer sync.WaitGroup
		consumer.Add(1)
		go func() {
			defer consumer.Done()
			for a := range sub.C() {
				out[a.Stream] = append(out[a.Stream], a.Detected)
			}
		}()
		// One stream only: its shard (hence seed) is stable for a fixed
		// shard count.
		for _, e := range streamEvents("solo", 30) {
			if err := rt.Ingest(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		consumer.Wait()
		return out
	}
	a, b := run(4), run(4)
	if len(a["solo"]) != 30 || len(b["solo"]) != 30 {
		t.Fatalf("answer counts = %d, %d, want 30", len(a["solo"]), len(b["solo"]))
	}
	for i := range a["solo"] {
		if a["solo"][i] != b["solo"][i] {
			t.Fatalf("window %d diverges between identically seeded runs", i)
		}
	}
}

// errRebuild is the factory failure TestRuntimeShardFailureSurfaces injects.
var errRebuild = errors.New("test: mechanism rebuild failed")

// TestRuntimeShardFailureSurfaces is the regression test for silent shard
// death: after a serving error the failure must show up in Ingest (not just
// at Close), in the snapshot, and in Close's returned error — and the message
// that failed must publish nothing, not even the windows it served before the
// error. Two failures remain deterministic: a MechanismFor rebuild that fails
// after a RegisterPrivate (before the failing message serves anything, with
// and without a WAL), and, with a WAL, a process crash before the group
// commit of a message that has already served two windows.
func TestRuntimeShardFailureSurfaces(t *testing.T) {
	for _, wal := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", wal), func(t *testing.T) {
			t.Run("rebuild", func(t *testing.T) { checkShardFailure(t, wal, false) })
			if wal {
				t.Run("crash-before-commit", func(t *testing.T) { checkShardFailure(t, wal, true) })
			}
		})
	}
}

// checkShardFailure runs one TestRuntimeShardFailureSurfaces case: a failing
// rebuild, or with crash a process crash before message 2's commit.
func checkShardFailure(t *testing.T, wal, crash bool) {
	cause := errRebuild
	if crash {
		cause = errProcessCrash
	}
	cfg := testConfig(t, 1)
	cfg.Mechanism = nil
	var builds atomic.Int32
	cfg.MechanismFor = func(_ int, private []core.PatternType) (core.Mechanism, error) {
		if builds.Add(1) > 1 {
			return nil, errRebuild
		}
		return core.NewUniformPPM(50, private...)
	}
	proc := &crashFS{}
	if wal {
		cfg.Durability = &DurabilityConfig{Dir: t.TempDir(), fs: proc}
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, wait := collectAnswers(t, rt)
	// Message 1 closes and publishes window 0.
	if err := rt.IngestBatch([]event.Event{event.New("a", 1), event.New("a", 11)}); err != nil {
		t.Fatal(err)
	}
	settle(t, rt)
	if crash {
		// The next commit carrying a record dies before writing.
		proc.kill()
	} else {
		pt, err := core.NewPatternType("priv2", "c")
		if err != nil {
			t.Fatal(err)
		}
		// The shard rebuilds at its next window boundary, inside
		// message 2, and the factory fails.
		if _, err := rt.RegisterPrivate(pt); err != nil {
			t.Fatal(err)
		}
	}
	// Message 2 closes windows 1 and 2: the rebuild fails before
	// serving window 1; the crash fires after both are served.
	if err := rt.IngestBatch([]event.Event{event.New("a", 21), event.New("a", 31)}); err != nil {
		t.Fatal(err)
	}
	// Keep ingesting until the failure propagates to Ingest.
	var ingestErr error
	for i := 0; i < 100000 && ingestErr == nil; i++ {
		ingestErr = rt.Ingest(event.New("a", event.Timestamp(40+i)))
	}
	if !errors.Is(ingestErr, ErrShardFailed) {
		t.Fatalf("Ingest after shard failure = %v, want ErrShardFailed", ingestErr)
	}
	tot := rt.Snapshot().Totals()
	if !tot.Failed {
		t.Error("Snapshot does not report the failed shard")
	}
	if err := rt.Close(); !errors.Is(err, cause) {
		t.Errorf("Close = %v, want the underlying %v", err, cause)
	}
	wait()
	if len(got) != len(cfg.Targets) {
		t.Errorf("answers for %d queries, want %d", len(got), len(cfg.Targets))
	}
	for key, answers := range got {
		if len(answers) != 1 || answers[0].WindowIndex != 0 {
			t.Errorf("%s: delivered %+v, want only message 1's window 0", key, answers)
		}
	}
	if int(tot.AnswersEmitted) != len(cfg.Targets) {
		t.Errorf("AnswersEmitted = %d, want %d", tot.AnswersEmitted, len(cfg.Targets))
	}
}

// TestRuntimeIdleStreamEviction is the regression test for unbounded
// per-stream state under key churn: with EvictAfter set, an idle stream's
// trailing window must be flushed and answered before Close, its state
// freed, and a returning event must start a fresh feed.
func TestRuntimeIdleStreamEviction(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.EvictAfter = 8
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("has-a")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	byStream := make(map[string]int)
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for a := range sub.C() {
			mu.Lock()
			byStream[a.Stream]++
			mu.Unlock()
		}
	}()
	// One event on the idle stream, then enough traffic on another stream
	// to trigger a sweep that evicts it.
	if err := rt.Ingest(event.New("a", 1).WithSource("idle")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := rt.Ingest(event.New("a", event.Timestamp(i)).WithSource("busy")); err != nil {
			t.Fatal(err)
		}
	}
	// The idle stream's trailing window must be answered without Close.
	deadline := 0
	for {
		mu.Lock()
		n := byStream["idle"]
		mu.Unlock()
		if n > 0 {
			break
		}
		if deadline++; deadline > 2000 {
			t.Fatal("idle stream's trailing window never flushed by eviction")
		}
		time.Sleep(time.Millisecond) // let the shard goroutine serve
		// Keep the busy stream moving so sweeps keep firing.
		if err := rt.Ingest(event.New("a", 500).WithSource("busy")); err != nil {
			t.Fatal(err)
		}
	}
	// A returning event starts a fresh feed (not dropped as late).
	if err := rt.Ingest(event.New("a", 2).WithSource("idle")); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	consumer.Wait()
	tot := rt.Snapshot().Totals()
	if tot.StreamsEvicted == 0 {
		t.Error("StreamsEvicted = 0, want at least 1")
	}
	if tot.Streams < 3 {
		t.Errorf("Streams = %d, want >= 3 (idle opened twice)", tot.Streams)
	}
	if tot.DroppedLate != 0 {
		t.Errorf("DroppedLate = %d: returning stream treated as late", tot.DroppedLate)
	}
	if byStream["idle"] < 2 {
		t.Errorf("idle stream answers = %d, want >= 2 (evicted flush + fresh feed)", byStream["idle"])
	}
}

func TestRuntimeConfigValidation(t *testing.T) {
	base := testConfig(t, 1)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no window width", func(c *Config) { c.WindowWidth = 0 }},
		{"nil mechanism", func(c *Config) { c.Mechanism = nil }},
		{"no private", func(c *Config) { c.Private = nil }},
		{"negative lateness", func(c *Config) { c.AllowedLateness = -1 }},
		{"negative horizon", func(c *Config) { c.Horizon = -1 }},
		{"negative evict", func(c *Config) { c.EvictAfter = -1 }},
		{"negative shards", func(c *Config) { c.Shards = -2 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Empty Targets is valid now that queries can be registered live.
	cfg := base
	cfg.Targets = nil
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("no targets rejected: %v", err)
	}
	rt.Close()
}

func TestHashSharderStable(t *testing.T) {
	s := HashSharder{}
	for _, key := range []string{"", "a", "stream-42", "taxi-007"} {
		i := s.Shard(key, 8)
		if i < 0 || i >= 8 {
			t.Fatalf("Shard(%q) = %d out of range", key, i)
		}
		if j := s.Shard(key, 8); j != i {
			t.Errorf("Shard(%q) unstable: %d then %d", key, i, j)
		}
	}
}
