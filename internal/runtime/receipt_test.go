package runtime

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"patterndp/internal/core"
	"patterndp/internal/event"
)

// countedReceipt is a Receipt whose Done counts its calls and signals each
// one on fired.
type countedReceipt struct {
	rc    Receipt
	calls atomic.Int32
	fired chan struct{}
}

func newCountedReceipt() *countedReceipt {
	c := &countedReceipt{fired: make(chan struct{}, 4)}
	c.rc.Done = func() {
		c.calls.Add(1)
		c.fired <- struct{}{}
	}
	return c
}

// once checks that Done has run exactly once, for a receipt the caller
// knows is done with.
func (c *countedReceipt) once(t *testing.T, name string) {
	t.Helper()
	if n := c.calls.Load(); n != 1 {
		t.Errorf("receipt %s: Done ran %d times, want once", name, n)
	}
}

// countingSink counts the answers delivered to it.
type countingSink struct{ n atomic.Int64 }

func (s *countingSink) Deliver(batch []Answer) { s.n.Add(int64(len(batch))) }

// TestReceiptFiresAfterPublish drives batches that span both shards through
// IngestBatchReceipt, one at a time as a closed-loop producer would: when a
// batch's Done runs, every answer the batch produced — on either shard — has
// already reached the sink, and none of a later batch has.
func TestReceiptFiresAfterPublish(t *testing.T) {
	cfg := testConfig(t, 2)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two streams per shard.
	var keys []string
	perShard := map[int]int{}
	for i := 0; len(keys) < 4; i++ {
		k := string(rune('p' + i))
		if sh := (HashSharder{}).Shard(k, 2); perShard[sh] < 2 {
			perShard[sh]++
			keys = append(keys, k)
		}
	}
	sink := &countingSink{}
	if _, err := rt.Attach("", sink); err != nil {
		t.Fatal(err)
	}
	const windows = 40
	rc := newCountedReceipt()
	seen := make(chan int64, 1)
	rc.rc.Done = func() {
		rc.calls.Add(1)
		seen <- sink.n.Load() // read on the shard that published last
	}
	for w := 0; w < windows; w++ {
		var batch []event.Event
		for _, k := range keys {
			batch = append(batch, event.New("a", event.Timestamp(w*10+1)).WithSource(k))
		}
		if err := rt.IngestBatchReceipt(context.Background(), batch, &rc.rc); err != nil {
			t.Fatal(err)
		}
		// Batch w closes window w-1 on every stream, for both queries.
		if got, want := <-seen, int64(w*len(keys)*len(cfg.Targets)); got != want {
			t.Fatalf("batch %d: %d answers delivered when its receipt fired, want %d", w, got, want)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if n := rc.calls.Load(); n != windows {
		t.Errorf("Done ran %d times over %d batches", n, windows)
	}
}

// TestReceiptDroppedByFailedShard queues batches behind a stalled shard
// whose next window boundary fails a rebuild: the failing batch's receipt
// and those of the batches drained after it fire exactly once, and so does
// the receipt of a call refused because the shard failed — before that call
// returns its error. A receipt also fires once for an empty batch and for a
// call on a closed runtime.
func TestReceiptDroppedByFailedShard(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.ShardBuffer = 4
	cfg.Mechanism = nil
	var builds atomic.Int32
	cfg.MechanismFor = func(_ int, private []core.PatternType) (core.Mechanism, error) {
		if builds.Add(1) > 1 {
			return nil, errRebuild
		}
		return core.NewUniformPPM(50, private...)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := &stallSink{entered: make(chan struct{}), release: make(chan struct{})}
	if _, err := rt.Attach("", sink); err != nil {
		t.Fatal(err)
	}
	send := func(at ...event.Timestamp) (*countedReceipt, error) {
		rc := newCountedReceipt()
		var batch []event.Event
		for _, ts := range at {
			batch = append(batch, event.New("a", ts))
		}
		return rc, rt.IngestBatchReceipt(context.Background(), batch, &rc.rc)
	}
	ingest := func(at ...event.Timestamp) *countedReceipt {
		t.Helper()
		rc, err := send(at...)
		if err != nil {
			t.Fatal(err)
		}
		return rc
	}
	served := ingest(1, 11) // closes window 0: the shard stalls publishing it
	<-sink.entered
	pt, err := core.NewPatternType("priv2", "c")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RegisterPrivate(pt); err != nil {
		t.Fatal(err)
	}
	failing := ingest(21) // closes window 1: the rebuild fails
	drained := []*countedReceipt{ingest(22), ingest(23, 24)}
	empty := ingest()
	empty.once(t, "empty batch")
	close(sink.release)
	<-served.fired
	<-failing.fired
	for _, rc := range drained {
		<-rc.fired
	}
	refused, err := send(31)
	if !errors.Is(err, ErrShardFailed) {
		t.Fatalf("ingest after the drain = %v, want ErrShardFailed", err)
	}
	refused.once(t, "refused")
	if got := rt.Snapshot().Totals().DroppedFailed; got != 3 {
		t.Errorf("DroppedFailed = %d, want the drained batches' 3", got)
	}
	if err := rt.Close(); !errors.Is(err, errRebuild) {
		t.Errorf("Close = %v, want %v", err, errRebuild)
	}
	closed, err := send(41)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("ingest after Close = %v, want ErrClosed", err)
	}
	closed.once(t, "closed")
	served.once(t, "served")
	failing.once(t, "failing")
	for _, rc := range drained {
		rc.once(t, "drained")
	}
}
