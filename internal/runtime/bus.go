package runtime

import (
	"errors"
	"sync"
	"sync/atomic"

	"patterndp/internal/core"
	"patterndp/internal/dp"
)

// Answer is one released query answer enriched with serving provenance: the
// stream key the window was cut from, the shard that served it, and the
// control-plane epoch it was served under — the epoch's query and private
// sets are exactly the ones that produced the answer. WindowIndex counts
// windows per stream feed, so answers for one stream arrive in strictly
// increasing window order — until the stream is evicted under
// Config.EvictAfter, after which a returning stream starts a fresh feed with
// WindowIndex 0.
type Answer struct {
	// Stream is the key of the stream the window belongs to.
	Stream string
	// Shard is the index of the shard that served the window.
	Shard int
	// Epoch is the control-plane epoch the window was served under.
	Epoch Epoch
	// SpentEpsilon is the stream's sequential privacy spend in its current
	// budget epoch after this window's release, and RemainingEpsilon the
	// unspent grant. Both are zero unless Config.Budget enables accounting.
	SpentEpsilon dp.Epsilon
	// RemainingEpsilon is the stream's unspent grant (never negative).
	RemainingEpsilon dp.Epsilon
	// Suppressed marks a data-independent placeholder released in place of
	// a real answer the stream's budget could not cover (BudgetSuppress /
	// BudgetThrottle): Detected is unconditionally false and the window
	// carries its interval only. Suppressed answers spend no budget.
	Suppressed bool
	// TraceNanos is the lifecycle-trace origin (unix nanoseconds of ingest
	// admission) when the answer was served from a batch selected by
	// Config.TraceSample; 0 otherwise. Serving layers use it to observe
	// end-to-end ingest→deliver latency. It is provenance, not payload —
	// the wire codec never encodes it.
	TraceNanos int64
	core.Answer
}

// Sink receives released answers from the bus: one Deliver per shard message
// that produced answers the sink subscribed to. Each shard reads the bus's
// subscriber table once per ingest message, before serving it, and evaluates
// only the queries some sink then listens to — so a sink attached while a
// shard is mid-message receives answers from that shard's next message on,
// and a detached one may receive the rest of the message in flight (one more
// Deliver at most). Deliver runs on the serving shard's goroutine —
// concurrently with Deliver calls from other shards, never with another from
// the same shard — so a sink that blocks backpressures that shard, and one
// that must not stall serving has to be non-blocking by construction. The
// batch is the shard's own buffer, reused for its next message: a sink copies
// what it keeps and retains nothing. Answers for one stream arrive in window
// order (one stream lives on one shard).
type Sink interface {
	Deliver(batch []Answer)
}

// ErrSubscriptionCancelled is reported by Subscription.Err after the
// subscriber itself cancelled the subscription.
var ErrSubscriptionCancelled = errors.New("runtime: subscription cancelled")

// Subscription is the channel-backed Sink: one consumer's handle on a query's
// released answers. Receive from C until it closes; Cancel detaches early. A
// subscription whose buffer fills backpressures serving, so either drain C
// until it closes or Cancel.
type Subscription struct {
	detach func()
	ch     chan Answer
	// done is closed before ch so a Deliver blocked on a full buffer aborts
	// instead of racing the channel close.
	done chan struct{}
	once sync.Once

	// sendMu serializes deliveries against the channel close; it is held
	// across a blocking send, so nothing else may wait on it while holding
	// errMu.
	sendMu sync.Mutex
	// errMu guards err only, so status reads (Err) never block behind a
	// backpressured delivery.
	errMu sync.Mutex
	err   error
}

// C returns the answer channel. It closes after Cancel (once any buffered
// answers are drained) or when the runtime closes.
func (s *Subscription) C() <-chan Answer { return s.ch }

// Cancel detaches the subscription from the answer bus and closes its
// channel, releasing its resources; answers already buffered can still be
// drained from C. Cancel is idempotent and safe to call concurrently with
// delivery — an answer being delivered at that instant is either buffered or
// discarded, never lost mid-send.
func (s *Subscription) Cancel() {
	s.detach()
	s.terminate(ErrSubscriptionCancelled)
}

// Err reports why delivery stopped: nil while the subscription is live and
// after the runtime closed it on Close (normal end of stream), or
// ErrSubscriptionCancelled after Cancel.
func (s *Subscription) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// terminate closes the subscription exactly once, recording err as the
// reason. done is closed before taking sendMu so a Deliver blocked mid-batch
// (which holds sendMu) is released before the channel close waits on the
// lock.
func (s *Subscription) terminate(err error) {
	s.once.Do(func() {
		close(s.done)
		s.sendMu.Lock()
		s.errMu.Lock()
		s.err = err
		s.errMu.Unlock()
		close(s.ch)
		s.sendMu.Unlock()
	})
}

// Deliver sends the batch in order, blocking while the buffer is full — that
// is the delivery-side backpressure. Holding sendMu across the batch is what
// makes Cancel safe: terminate can only close the channel between batches,
// and a blocked send is first released via done (the rest of the batch is
// discarded with it).
func (s *Subscription) Deliver(batch []Answer) {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	select {
	case <-s.done:
		return // terminated: ch is closed or about to be
	default:
	}
	for i := range batch {
		select {
		case s.ch <- batch[i]:
		case <-s.done:
			return
		}
	}
}

// sinkTable is the bus's subscriber table: the subscribe-all sinks, and the
// sinks attached under each query name, with no name left without one. Each
// subscribed name has a slot, numbering the named queries 0..len(slots)-1:
// slots[i] are the sinks of the name whose slot is i. It is immutable once
// published — attach and detach build a new one — so a shard reads it with one
// atomic load and no lock.
type sinkTable struct {
	all   []attached
	named map[string]int32
	slots [][]attached
}

// attached is one sink with the id its detach removes it by and, when the
// sink wants one, its end-of-stream signal.
type attached struct {
	id   uint64
	sink Sink
	end  func()
}

// slotOf returns query's slot, or -1 when no sink is attached under its name.
func (t *sinkTable) slotOf(query string) int32 {
	if slot, ok := t.named[query]; ok {
		return slot
	}
	return -1
}

// of returns the sinks attached under query ("" for the subscribe-all set).
func (t *sinkTable) of(query string) []attached {
	if query == "" {
		return t.all
	}
	if slot := t.slotOf(query); slot >= 0 {
		return t.slots[slot]
	}
	return nil
}

// with returns a copy of t in which query's sinks are replaced by sinks.
func (t *sinkTable) with(query string, sinks []attached) *sinkTable {
	if query == "" {
		return &sinkTable{all: sinks, named: t.named, slots: t.slots}
	}
	nt := &sinkTable{all: t.all, named: make(map[string]int32, len(t.named)+1)}
	add := func(name string, sinks []attached) {
		nt.named[name] = int32(len(nt.slots))
		nt.slots = append(nt.slots, sinks)
	}
	for name, slot := range t.named {
		if name != query {
			add(name, t.slots[slot])
		}
	}
	if len(sinks) > 0 {
		add(query, sinks)
	}
	return nt
}

// gather is one shard's scratch for a publish: the message's answers grouped
// by subscribed query, indexed by the table's slots and empty between
// publishes, plus the slots the current message filled.
type gather struct {
	bySlot [][]Answer
	filled []int32
}

// subscriberBuffer is each Subscribe channel's capacity, in answers.
const subscriberBuffer = 64

// bus fans released answers out to the attached sinks, one Deliver per shard
// message per interested sink.
type bus struct {
	buffer int
	table  atomic.Pointer[sinkTable]

	mu     sync.Mutex // serializes attach, detach and close
	nextID uint64
}

func newBus(buffer int) *bus {
	b := &bus{buffer: buffer}
	b.table.Store(&sinkTable{})
	return b
}

// attach adds sink under the named query ("" for every query) and returns the
// function that removes it again (idempotent). A shard that loaded the table
// just before a detach may still deliver one more batch after it returns. end,
// if not nil, is called when the bus closes with the sink still attached. The
// runtime orders every attach before close.
func (b *bus) attach(query string, sink Sink, end func()) (detach func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	id := b.nextID
	t := b.table.Load()
	old := t.of(query)
	b.table.Store(t.with(query, append(old[:len(old):len(old)], attached{id, sink, end})))
	return func() { b.detach(query, id) }
}

func (b *bus) detach(query string, id uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.table.Load()
	old := t.of(query)
	for i := range old {
		if old[i].id == id {
			b.table.Store(t.with(query, append(old[:i:i], old[i+1:]...)))
			return
		}
	}
}

// subscribe attaches a fresh channel subscription for the named query; the
// bus closing is its normal end of stream.
func (b *bus) subscribe(query string) *Subscription {
	s := &Subscription{
		ch:   make(chan Answer, b.buffer),
		done: make(chan struct{}),
	}
	s.detach = b.attach(query, s, func() { s.terminate(nil) })
	return s
}

// count totals the attached sinks across every query, including the
// subscribe-all set.
func (b *bus) count() int {
	t := b.table.Load()
	n := len(t.all)
	for _, sinks := range t.slots {
		n += len(sinks)
	}
	return n
}

// publish hands one shard message's answers to every interested sink of t,
// the table the shard resolved its demand from: the batch as is to the
// subscribe-all sinks, and each subscribed query's answers to that query's
// sinks. slots[i] is batch[i]'s slot in t (-1: only the subscribe-all sinks
// listen), so the gather into g is one pass with no lookup. It runs on the
// shard goroutine; a blocking sink stalls that shard but never an attach, a
// detach or another shard.
func (b *bus) publish(t *sinkTable, batch []Answer, slots []int32, g *gather) {
	for _, s := range t.all {
		s.sink.Deliver(batch)
	}
	if len(t.slots) == 0 {
		return
	}
	for len(g.bySlot) < len(t.slots) {
		g.bySlot = append(g.bySlot, nil)
	}
	for i, slot := range slots {
		if slot < 0 {
			continue
		}
		if len(g.bySlot[slot]) == 0 {
			g.filled = append(g.filled, slot)
		}
		g.bySlot[slot] = append(g.bySlot[slot], batch[i])
	}
	for _, slot := range g.filled {
		for _, s := range t.slots[slot] {
			s.sink.Deliver(g.bySlot[slot])
		}
		g.bySlot[slot] = g.bySlot[slot][:0]
	}
	g.filled = g.filled[:0]
}

// close detaches every sink, signalling end of stream to those that asked for
// it. The runtime only calls it after all shards have drained, so no publish
// is in flight and none follows.
func (b *bus) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.table.Swap(&sinkTable{})
	end := func(sinks []attached) {
		for _, s := range sinks {
			if s.end != nil {
				s.end()
			}
		}
	}
	end(t.all)
	for _, sinks := range t.slots {
		end(sinks)
	}
}
