package runtime

import (
	"errors"
	"sync"

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
	// BudgetThrottle / the window that triggered BudgetRotateEpoch):
	// Detected is unconditionally false and the window carries its
	// interval only. Suppressed answers spend no budget.
	Suppressed bool
	// TraceNanos is the lifecycle-trace origin (unix nanoseconds of ingest
	// admission) when the answer was served from a batch selected by
	// Config.TraceSample; 0 otherwise. Serving layers use it to observe
	// end-to-end ingest→deliver latency. It is provenance, not payload —
	// the wire codec never encodes it.
	TraceNanos int64
	core.Answer
}

// ErrSubscriptionCancelled is reported by Subscription.Err after the
// subscriber itself cancelled the subscription.
var ErrSubscriptionCancelled = errors.New("runtime: subscription cancelled")

// Subscription is one consumer's handle on a query's released answers.
// Receive from C until it closes; Cancel detaches early. A subscription
// whose buffer fills backpressures serving, so either drain C until it
// closes or Cancel.
type Subscription struct {
	query string
	bus   *bus
	ch    chan Answer
	// done is closed before ch so an in-flight publish blocked on a full
	// buffer aborts instead of racing the channel close.
	done chan struct{}
	once sync.Once

	// sendMu serializes deliveries against the channel close; it is held
	// across a blocking send, so nothing else may wait on it while holding
	// stateMu.
	sendMu sync.Mutex
	// stateMu guards closed and err only, so status reads (Err) never
	// block behind a backpressured delivery.
	stateMu sync.Mutex
	closed  bool
	err     error
}

// C returns the answer channel. It closes after Cancel (once any buffered
// answers are drained) or when the runtime closes.
func (s *Subscription) C() <-chan Answer { return s.ch }

// Query returns the query name the subscription was opened for ("" for the
// subscribe-all subscription).
func (s *Subscription) Query() string { return s.query }

// Cancel detaches the subscription from the answer bus and closes its
// channel, releasing its resources; answers already buffered can still be
// drained from C. Cancel is idempotent and safe to call concurrently with
// delivery — an answer being delivered at that instant is either buffered or
// discarded, never lost mid-send.
func (s *Subscription) Cancel() {
	s.bus.remove(s)
	s.terminate(ErrSubscriptionCancelled)
}

// Err reports why delivery stopped: nil while the subscription is live and
// after the runtime closed it on Close (normal end of stream), or
// ErrSubscriptionCancelled after Cancel.
func (s *Subscription) Err() error {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.err
}

// terminate closes the subscription exactly once, recording err as the
// reason. done is closed before taking sendMu so a sender blocked inside
// send (which holds sendMu) is released before the channel close waits on
// the lock.
func (s *Subscription) terminate(err error) {
	s.once.Do(func() {
		close(s.done)
		s.sendMu.Lock()
		s.stateMu.Lock()
		s.err = err
		s.closed = true
		s.stateMu.Unlock()
		close(s.ch)
		s.sendMu.Unlock()
	})
}

// send delivers one answer, blocking while the buffer is full — that is the
// delivery-side backpressure. Holding sendMu across the send is what makes
// Cancel safe: terminate can only close the channel between sends, and a
// blocked send is first released via done.
func (s *Subscription) send(a Answer) {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	s.stateMu.Lock()
	closed := s.closed
	s.stateMu.Unlock()
	if closed {
		return
	}
	select {
	case s.ch <- a:
	case <-s.done:
	}
}

// bus fans released answers out to per-query subscribers. Publishing blocks
// when a subscriber's buffer is full; consumers must drain or cancel.
type bus struct {
	mu     sync.RWMutex
	buffer int
	subs   map[string]map[*Subscription]struct{} // query name → subscribers; "" receives all
	closed bool
}

func newBus(buffer int) *bus {
	return &bus{buffer: buffer, subs: make(map[string]map[*Subscription]struct{})}
}

// add registers a new subscriber for the named query ("" for every query).
// After the bus has closed the returned subscription is already terminated.
func (b *bus) add(query string) *Subscription {
	s := &Subscription{
		query: query,
		bus:   b,
		ch:    make(chan Answer, b.buffer),
		done:  make(chan struct{}),
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		s.terminate(nil)
		return s
	}
	set := b.subs[query]
	if set == nil {
		set = make(map[*Subscription]struct{})
		b.subs[query] = set
	}
	set[s] = struct{}{}
	return s
}

// remove detaches a subscription so it can be garbage collected and no
// longer stalls publishing. Removing an already-removed subscription is a
// no-op.
func (b *bus) remove(s *Subscription) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if set := b.subs[s.query]; set != nil {
		delete(set, s)
		if len(set) == 0 {
			delete(b.subs, s.query)
		}
	}
}

// subscribers counts the live subscriptions for one query name.
func (b *bus) subscribers(query string) int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.subs[query])
}

// count totals the live subscriptions across every query, including the
// subscribe-all set.
func (b *bus) count() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	n := 0
	for _, set := range b.subs {
		n += len(set)
	}
	return n
}

// pubTarget pairs a subscription with the index of the batched answer it is
// to receive.
type pubTarget struct {
	sub *Subscription
	idx int32
}

// collect gathers the delivery targets for a whole answer batch — each
// answer goes to its query's subscribers and to the subscribe-all set — under
// a single reader lock, appending into the caller's reusable scratch. The
// caller performs the sends outside the lock, so a slow subscriber stalls
// publishers but never blocks new subscriptions or cancellations.
func (b *bus) collect(dst []pubTarget, answers []Answer) []pubTarget {
	b.mu.RLock()
	defer b.mu.RUnlock()
	all := b.subs[""]
	for i := range answers {
		for s := range b.subs[answers[i].Query] {
			dst = append(dst, pubTarget{s, int32(i)})
		}
		for s := range all {
			dst = append(dst, pubTarget{s, int32(i)})
		}
	}
	return dst
}

// close terminates every remaining subscription with a nil reason (normal
// end of stream). The runtime only calls it after all shards have drained,
// so no publish can be in flight.
func (b *bus) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, set := range b.subs {
		for s := range set {
			s.terminate(nil)
		}
	}
	b.subs = make(map[string]map[*Subscription]struct{})
}
