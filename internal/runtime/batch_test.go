package runtime

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/event"
)

// collectAnswers drains a subscribe-all subscription into a per-stream,
// per-query answer log until the runtime closes.
func collectAnswers(t *testing.T, rt *Runtime) (map[string][]Answer, func()) {
	t.Helper()
	sub, err := rt.Subscribe("")
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string][]Answer)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range sub.C() {
			key := a.Stream + "/" + a.Query
			got[key] = append(got[key], a)
		}
	}()
	return got, func() { <-done }
}

// TestIngestBatchMatchesIngest pins batch-ingest equivalence: the same
// events delivered via IngestBatch produce exactly the released answers of
// per-event Ingest under the same seed.
func TestIngestBatchMatchesIngest(t *testing.T) {
	const streams, windows = 4, 12
	run := func(batch int) map[string][]Answer {
		rt, err := New(testConfig(t, 3))
		if err != nil {
			t.Fatal(err)
		}
		got, wait := collectAnswers(t, rt)
		var wg sync.WaitGroup
		for s := 0; s < streams; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				evs := streamEvents(fmt.Sprintf("stream-%d", s), windows)
				if batch <= 1 {
					for _, e := range evs {
						if err := rt.Ingest(e); err != nil {
							t.Error(err)
							return
						}
					}
					return
				}
				for len(evs) > 0 {
					n := min(batch, len(evs))
					if err := rt.IngestBatch(evs[:n]); err != nil {
						t.Error(err)
						return
					}
					evs = evs[n:]
				}
			}(s)
		}
		wg.Wait()
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		wait()
		return got
	}
	single := run(1)
	batched := run(5)
	if len(single) != len(batched) {
		t.Fatalf("stream/query sets differ: %d vs %d", len(single), len(batched))
	}
	for key, want := range single {
		got := batched[key]
		if len(got) != len(want) {
			t.Fatalf("%s: %d answers batched, %d single", key, len(got), len(want))
		}
		for i := range want {
			if got[i].WindowIndex != want[i].WindowIndex ||
				got[i].Detected != want[i].Detected ||
				got[i].Start != want[i].Start {
				t.Fatalf("%s answer %d: batched %+v, single %+v", key, i, got[i], want[i])
			}
		}
	}
}

// TestIngestBatchMultiShardRouting batches events of many streams in one
// call and asserts every stream still lands wholly on its own shard with
// answers in window order.
func TestIngestBatchMultiShardRouting(t *testing.T) {
	const streams, windows = 8, 10
	rt, err := New(testConfig(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	got, wait := collectAnswers(t, rt)
	// Interleave all streams into one batch per window round, so every
	// IngestBatch call spans multiple shards.
	for w := 0; w < windows; w++ {
		var batch []event.Event
		for s := 0; s < streams; s++ {
			key := fmt.Sprintf("stream-%d", s)
			base := event.Timestamp(w * 10)
			batch = append(batch, event.New("a", base+1).WithSource(key))
			if w%2 == 0 {
				batch = append(batch, event.New("b", base+5).WithSource(key))
			}
		}
		if err := rt.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
	for s := 0; s < streams; s++ {
		key := fmt.Sprintf("stream-%d/has-a", s)
		answers := got[key]
		if len(answers) != windows {
			t.Fatalf("%s: %d answers, want %d", key, len(answers), windows)
		}
		shard := answers[0].Shard
		for i, a := range answers {
			if a.WindowIndex != i {
				t.Errorf("%s: answer %d has window index %d", key, i, a.WindowIndex)
			}
			if a.Shard != shard {
				t.Errorf("%s: served by shards %d and %d", key, shard, a.Shard)
			}
			if !a.Detected {
				t.Errorf("%s window %d: every window has an 'a'", key, i)
			}
		}
	}
}

// TestIngestBatchCallerOwnsSlice asserts the input slice is copied: the
// caller may clobber it immediately after IngestBatch returns.
func TestIngestBatchCallerOwnsSlice(t *testing.T) {
	rt, err := New(testConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	got, wait := collectAnswers(t, rt)
	buf := make([]event.Event, 0, 4)
	for w := 0; w < 6; w++ {
		base := event.Timestamp(w * 10)
		buf = append(buf[:0], event.New("a", base+1), event.New("b", base+5))
		if err := rt.IngestBatch(buf); err != nil {
			t.Fatal(err)
		}
		// Clobber the buffer right away; the runtime must have copied.
		buf = append(buf[:0], event.New("zzz", base+9), event.New("zzz", base+9))
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
	answers := got["/seq-ab"]
	if len(answers) != 6 {
		t.Fatalf("%d answers, want 6", len(answers))
	}
	for i, a := range answers {
		if !a.Detected {
			t.Errorf("window %d: want seq-ab detected (clobbered buffer leaked?)", i)
		}
	}
}

// TestIngestBatchEmptyAndClosed covers the trivial paths.
func TestIngestBatchEmptyAndClosed(t *testing.T) {
	rt, err := New(testConfig(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.IngestBatch(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.IngestBatch([]event.Event{event.New("a", 1)}); err != ErrClosed {
		t.Errorf("after close: %v, want ErrClosed", err)
	}
}

// TestPooledBuffersAcrossEpochs is the pooled-buffer churn race test: batch
// producers, epoch churn, and snapshot readers run concurrently (under
// -race in CI), and every released answer must name a query that was
// registered in the epoch stamped on it.
func TestPooledBuffersAcrossEpochs(t *testing.T) {
	const streams, windows = 4, 40
	cfg := testConfig(t, 2)
	cfg.MechanismFor = func(_ int, private []core.PatternType) (core.Mechanism, error) {
		return core.NewUniformPPM(50, private...)
	}
	cfg.Mechanism = nil
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("")
	if err != nil {
		t.Fatal(err)
	}
	// Epochs 1..n register/unregister a probe query; answers carry their
	// epoch, so a probe answer must only appear under an epoch where the
	// probe was registered (odd epochs, as each toggle bumps by one).
	probe := cep.Query{Name: "probe", Pattern: cep.E("b"), Window: 10}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for a := range sub.C() {
			if a.Query == "probe" && a.Epoch%2 != 1 {
				t.Errorf("probe answered under epoch %d where it was unregistered", a.Epoch)
			}
		}
	}()
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		registered := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if registered {
				_, err = rt.UnregisterQuery(probe)
			} else {
				_, err = rt.RegisterQuery(probe)
			}
			if err != nil {
				t.Error(err)
				return
			}
			registered = !registered
			time.Sleep(time.Millisecond)
		}
	}()
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			evs := streamEvents(fmt.Sprintf("stream-%d", s), windows)
			for len(evs) > 0 {
				n := min(7, len(evs))
				if err := rt.IngestBatchContext(context.Background(), evs[:n]); err != nil {
					t.Error(err)
					return
				}
				evs = evs[n:]
			}
		}(s)
	}
	// Concurrent snapshot readers exercise the counters.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = rt.Snapshot()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(stop)
	churn.Wait()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	<-drained
}
