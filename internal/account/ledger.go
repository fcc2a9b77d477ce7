package account

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"patterndp/internal/dp"
	"patterndp/internal/metrics"
)

// DefaultThrottleAt is the Throttle policy's low-water mark: the fraction of
// the grant below which the answer cadence is halved.
const DefaultThrottleAt = 0.25

// Ledger is the runtime-wide privacy-budget ledger: the per-stream,
// per-epoch grant, the admission policy, and one single-writer sub-ledger
// per shard. See the package documentation for the composition model.
type Ledger struct {
	grant     dp.Epsilon
	policy    Policy
	overlap   int
	shards    []*ShardLedger
	rotations metrics.Counter
}

// NewLedger builds a ledger for shards serving shards, granting each stream
// grant per budget epoch under the given policy. overlap is how many windows
// cover each event (width/slide; 1 for tumbling windows) — the w-event
// composition width.
func NewLedger(grant dp.Epsilon, policy Policy, overlap, shards int) *Ledger {
	if overlap < 1 {
		overlap = 1
	}
	l := &Ledger{grant: grant, policy: policy, overlap: overlap}
	for i := 0; i < shards; i++ {
		sh := &ShardLedger{
			streams:        make(map[string]*StreamLedger),
			retired:        make(map[string]float64),
			retiredByEpoch: make(map[uint64]float64),
		}
		sh.queries.Store(&querySpend{})
		l.shards = append(l.shards, sh)
	}
	return l
}

// Shard returns shard i's sub-ledger.
func (l *Ledger) Shard(i int) *ShardLedger { return l.shards[i] }

// CountRotation records one applied budget-epoch rotation (called by the
// runtime when a RotateBudget call bumps the epoch).
func (l *Ledger) CountRotation() { l.rotations.Inc() }

// Rotations returns the applied budget-epoch rotation count.
func (l *Ledger) Rotations() int64 { return l.rotations.Load() }

// querySpend is one epoch's per-query spend attribution: names are the
// control state's target names in sorted order. Attribution is bookkeeping,
// not composition: one window release answers every registered query
// (post-processing), so each admitted window's charge is attributed to every
// query while the stream is charged once. Since every live query receives the
// same charges, they accrue in one shared cell, and carried[i] holds what
// query i had before the last fold: query i's attribution is carried[i] +
// shared, and a charge costs one cell however many queries are live. The
// slices are immutable once published; the cells are single-writer.
type querySpend struct {
	names   []string
	carried []epsCell
	shared  epsCell
}

// value returns query i's attributed ε.
func (qs *querySpend) value(i int) float64 { return qs.carried[i].load() + qs.shared.load() }

// fold moves the shared accumulator into every carried cell. Callers hold
// the shard's mu — Snapshot reads under it — so no reader sees a charge both
// carried and shared, or neither.
func (qs *querySpend) fold() {
	s := qs.shared.load()
	if s == 0 {
		return
	}
	for i := range qs.carried {
		qs.carried[i].add(s)
	}
	qs.shared.store(0)
}

// ShardLedger is one shard's sub-ledger. All mutations happen on the owning
// shard goroutine; Snapshot readers load the atomic cells concurrently and
// take mu only for the stream registry and the retired archive.
type ShardLedger struct {
	mu      sync.Mutex
	streams map[string]*StreamLedger
	// retired archives per-query attribution of unregistered queries and
	// rotated epochs, keyed by query name (guarded by mu).
	retired map[string]float64
	// retiredSpent archives the stream spend of evicted streams and rotated
	// epochs (single-writer cell; retiredSum is its writer-side
	// compensation shadow). retiredByEpoch breaks the same archive down by
	// the budget epoch the spend was accumulated under (guarded by mu) —
	// the per-epoch archive a restart restores and an auditor reads.
	retiredSpent   epsCell
	retiredSum     dp.Sum
	retiredByEpoch map[uint64]float64

	queries atomic.Pointer[querySpend]
	charge  epsCell

	admitted, denied, suppressed, throttled metrics.Counter
}

// SetCharge publishes the shard's current per-window release charge (the
// mechanism's pattern-level ε), refreshed when a control-plane epoch rebuilds
// the mechanism.
func (sh *ShardLedger) SetCharge(c float64) { sh.charge.store(c) }

// SetQueries installs the current epoch's target-query names (sorted), used
// for per-query spend attribution. Attribution of names no longer present is
// folded into the retired archive. Called by the shard at window boundaries
// when the applied control state changes; a call with unchanged names is a
// no-op.
func (sh *ShardLedger) SetQueries(names []string) {
	cur := sh.queries.Load()
	if slices.Equal(cur.names, names) {
		return
	}
	next := &querySpend{names: slices.Clone(names), carried: make([]epsCell, len(names))}
	var removed []QuerySpend
	j := 0
	for i, name := range cur.names {
		for j < len(next.names) && next.names[j] < name {
			j++
		}
		if v := cur.value(i); v != 0 {
			if j < len(next.names) && next.names[j] == name {
				next.carried[j].store(v)
			} else {
				removed = append(removed, QuerySpend{Query: name, Eps: dp.Epsilon(v)})
			}
		}
	}
	// Publish the new cells before folding removed attribution into the
	// archive: a Snapshot racing the swap can transiently miss a removed
	// query's value, but never reads it from both places.
	sh.queries.Store(next)
	if len(removed) > 0 {
		sh.mu.Lock()
		for _, q := range removed {
			sh.retired[q.Query] += float64(q.Eps)
		}
		sh.mu.Unlock()
	}
}

// ChargeQueries attributes one admitted window's charge to every currently
// registered query: one add to the shared cell, whatever the query count.
// Lock-free: the cells are single-writer.
func (sh *ShardLedger) ChargeQueries(charge float64) {
	sh.queries.Load().shared.add(charge)
}

// Rotate archives the live per-query attribution into the retired archive at
// a budget-epoch boundary, so Snapshot's PerQuery breakdown always describes
// the live epoch. Stream spend rotates lazily per stream on its next charge.
// The fold runs under mu, and Snapshot reads both the live cells and the
// archive under the same mu, so a reader sees each value exactly once.
func (sh *ShardLedger) Rotate() {
	qs := sh.queries.Load()
	sh.mu.Lock()
	qs.fold()
	for i, name := range qs.names {
		if v := qs.carried[i].load(); v != 0 {
			qs.carried[i].store(0)
			sh.retired[name] += v
		}
	}
	sh.mu.Unlock()
}

// OpenStream registers a new stream feed under the given budget epoch and
// returns its ledger, which the runtime caches in the stream's serving state
// so the publish path never touches the registry map.
func (sh *ShardLedger) OpenStream(key string, epoch uint64) *StreamLedger {
	sl := &StreamLedger{}
	sl.epoch.Store(epoch)
	sh.mu.Lock()
	sh.streams[key] = sl
	sh.mu.Unlock()
	return sl
}

// EvictStream archives and frees an evicted stream's ledger. A returning
// stream starts a fresh feed — and, like its window indices, a fresh ledger:
// operators needing a strict per-key lifetime budget should disable eviction
// (Config.EvictAfter = 0).
func (sh *ShardLedger) EvictStream(key string) {
	sh.mu.Lock()
	sl := sh.streams[key]
	delete(sh.streams, key)
	if sl != nil {
		if spend := sl.sum.Value(); spend != 0 {
			sh.retiredByEpoch[sl.epoch.Load()] += spend
		}
	}
	sh.mu.Unlock()
	if sl != nil {
		sh.retiredSum.Add(sl.sum.Value())
		sh.retiredSpent.store(sh.retiredSum.Value())
	}
}

// StreamLedger is one stream feed's budget position. Single writer: the
// owning shard goroutine; the atomic cells are read by Snapshot.
type StreamLedger struct {
	// epoch is the budget epoch of the current accumulation; a stream
	// observes rotations lazily, on its first decision under the new epoch.
	epoch atomic.Uint64
	// spent publishes sum.Value(); sum is the writer-side compensated
	// accumulator of the live epoch's sequential composition.
	spent epsCell
	sum   dp.Sum
	// composed publishes the w-event ring sum: the charges of the last
	// overlap windows (released or not), i.e. the worst-case loss of any
	// single event; maxComposed publishes its historical maximum over the
	// stream's lifetime (across epochs — the per-event bound an auditor
	// holds the whole feed to). ring is writer-only.
	composed    epsCell
	maxComposed epsCell
	ring        []float64
	ringAt      int

	admitted, denied, suppressed metrics.Counter
}

// pushRing records one window's charge (0 for a window that released
// nothing) in the w-event ring and republishes the composed sum. The ring is
// summed in full per push — overlap is small — keeping the published value
// exact instead of drifting through incremental subtraction.
func (sl *StreamLedger) pushRing(overlap int, charge float64) {
	if len(sl.ring) != overlap {
		sl.ring = make([]float64, overlap)
	}
	sl.ring[sl.ringAt] = charge
	sl.ringAt++
	if sl.ringAt == len(sl.ring) {
		sl.ringAt = 0
	}
	var s float64
	for _, c := range sl.ring {
		s += c
	}
	sl.composed.store(s)
	if s > sl.maxComposed.load() {
		sl.maxComposed.store(s)
	}
}

// rotateStream lazily applies a budget-epoch rotation to one stream:
// archive the old epoch's spend and restart accumulation under the fresh
// grant. The w-event ring is NOT reset — an event near the rotation
// boundary is covered by windows of both epochs, so the per-event composed
// loss is epoch-independent. Called on the owning shard goroutine from
// Decide. Store order matters for concurrent Snapshots: the stream's cells
// are cleared before the archived value is published, so a racing reader
// can transiently miss the rotating spend but never count it twice.
func (sh *ShardLedger) rotateStream(sl *StreamLedger, epoch uint64) {
	spend := sl.sum.Value()
	oldEpoch := sl.epoch.Load()
	sl.sum = dp.Sum{}
	sl.spent.store(0)
	sl.epoch.Store(epoch)
	sh.retiredSum.Add(spend)
	sh.retiredSpent.store(sh.retiredSum.Value())
	if spend != 0 {
		sh.mu.Lock()
		sh.retiredByEpoch[oldEpoch] += spend
		sh.mu.Unlock()
	}
}

// outcome builds the stamped budget position after a decision.
func (l *Ledger) outcome(d Decision, sl *StreamLedger) Outcome {
	spent := sl.sum.Value()
	rem := float64(l.grant) - spent
	if rem < 0 {
		rem = 0
	}
	return Outcome{Decision: d, Spent: dp.Epsilon(spent), Remaining: dp.Epsilon(rem)}
}

// Decide is the admission-control decision for one window release: it
// applies any pending budget-epoch rotation to the stream, charges the
// release if the grant covers it, and otherwise applies the policy.
// windowIdx is the stream's window index (the Throttle parity source);
// charge the release's ε; epoch the shard's applied budget epoch. Decide
// runs on the owning shard goroutine, lock-free.
func (l *Ledger) Decide(sh *ShardLedger, sl *StreamLedger, windowIdx int64, charge float64, epoch uint64) Outcome {
	if sl.epoch.Load() != epoch {
		sh.rotateStream(sl, epoch)
	}
	rem := float64(l.grant) - sl.sum.Value()
	var d Decision
	switch {
	case charge <= rem+dp.SpendTolerance(l.grant):
		d = Admitted
		if l.policy == Throttle && rem-charge < DefaultThrottleAt*float64(l.grant) && windowIdx&1 == 1 {
			d = Throttled
		}
	case l.policy == Suppress:
		d = Suppressed
	default: // Deny; Throttle past its stretch
		d = Denied
	}
	l.record(sh, sl, d, charge)
	return l.outcome(d, sl)
}

// Skip records n windows that closed while no query was registered: they
// release nothing and spend nothing, but they still slide zero charges
// through the w-event ring so Composed keeps describing the last overlap
// windows of stream time instead of going stale across a queryless gap.
// Runs on the owning shard goroutine, like Decide.
func (l *Ledger) Skip(sl *StreamLedger, n int) {
	if n > l.overlap {
		n = l.overlap // further zeros would only rewrite zeros
	}
	for i := 0; i < n; i++ {
		sl.pushRing(l.overlap, 0)
	}
}

// record applies one window decision's effects: an admitted charge goes
// into the stream's sum and spent cell, the w-event ring gets the charge (0
// for a window that released nothing), and the decision's stream and shard
// counters tick. Decide and ReplayWindow both book through it, so a
// replayed window lands exactly as the live one did.
func (l *Ledger) record(sh *ShardLedger, sl *StreamLedger, d Decision, charge float64) {
	switch d {
	case Admitted:
		sl.sum.Add(charge)
		sl.spent.store(sl.sum.Value())
		sl.admitted.Inc()
		sh.admitted.Inc()
	case Denied:
		charge = 0
		sl.denied.Inc()
		sh.denied.Inc()
	case Throttled:
		charge = 0
		sl.suppressed.Inc()
		sh.throttled.Inc()
	default: // Suppressed
		charge = 0
		sl.suppressed.Inc()
		sh.suppressed.Inc()
	}
	sl.pushRing(l.overlap, charge)
}

// QuerySpend is one query's attributed spend in the snapshot breakdown.
type QuerySpend struct {
	// Query is the target query's name.
	Query string
	// Eps is the ε attributed to the query: the sum of charges of every
	// admitted window whose release the query's answers were computed from.
	Eps dp.Epsilon
}

// Snapshot is a point-in-time view of the ledger, assembled by
// Runtime.Snapshot into Stats.Budget.
type Snapshot struct {
	// Grant is the per-stream, per-epoch budget grant.
	Grant dp.Epsilon
	// Policy is the admission policy.
	Policy Policy
	// Epoch is the current control-plane budget epoch. Shards apply it at
	// window boundaries; streams observe it lazily at their next release.
	Epoch uint64
	// Overlap is the w-event composition width (windows per event).
	Overlap int
	// Charge is the current per-window release charge (the maximum across
	// shards; shards rebuild mechanisms independently at epoch boundaries).
	Charge dp.Epsilon
	// Streams counts live stream ledgers.
	Streams int
	// Exhausted counts live streams whose remaining grant no longer covers
	// one release at the current charge.
	Exhausted int
	// Spent totals live streams' current-epoch sequential spend — the
	// attribution total, not the per-subject bound (streams hold disjoint
	// data, so per-stream spends compose in parallel).
	Spent dp.Epsilon
	// Retired totals spend archived from evicted streams and rotated
	// epochs; Spent+Retired is the lifetime total across the runtime.
	Retired dp.Epsilon
	// RetiredByEpoch breaks Retired down by the budget epoch the spend was
	// accumulated under, sorted by epoch. (Spend of streams evicted while a
	// lazy rotation was pending is archived under their last active epoch;
	// unrotated live-stream spend counted into Retired by a racing Snapshot
	// appears here only once the stream actually rotates.)
	RetiredByEpoch []EpochSpend
	// MaxStreamSpent is the largest live per-stream spend — the parallel
	// composition bound actually guaranteed per data subject this epoch.
	MaxStreamSpent dp.Epsilon
	// MaxComposed is the largest w-event composed loss any live stream ever
	// reached: the worst-case privacy loss of any single event under
	// sliding overlap, over the stream's lifetime. Bounded by
	// min(Grant, Overlap×Charge) when enforcement holds.
	MaxComposed dp.Epsilon
	// Admitted, Denied, Suppressed, and Throttled count window releases by
	// decision, cumulatively across epochs and evictions.
	Admitted, Denied, Suppressed, Throttled int64
	// Rotations counts applied budget-epoch rotations.
	Rotations int64
	// PerQuery is the live epoch's per-query spend attribution, sorted by
	// name. Attribution is bookkeeping: every registered query shares each
	// window's single release, so per-query values overlap by design.
	PerQuery []QuerySpend
	// RetiredQueries is the archived attribution of unregistered queries
	// and rotated epochs, sorted by name.
	RetiredQueries []QuerySpend
}

// Snapshot aggregates every shard's sub-ledger under the given budget epoch.
// Safe to call at any time, including while serving.
func (l *Ledger) Snapshot(epoch uint64) *Snapshot {
	s := &Snapshot{
		Grant:     l.grant,
		Policy:    l.policy,
		Epoch:     epoch,
		Overlap:   l.overlap,
		Rotations: l.rotations.Load(),
	}
	var spent, retired dp.Sum
	perQ := make(map[string]float64)
	retQ := make(map[string]float64)
	retByEpoch := make(map[uint64]float64)
	for _, sh := range l.shards {
		if c := sh.charge.load(); c > float64(s.Charge) {
			s.Charge = dp.Epsilon(c)
		}
		s.Admitted += sh.admitted.Load()
		s.Denied += sh.denied.Load()
		s.Suppressed += sh.suppressed.Load()
		s.Throttled += sh.throttled.Load()
		retired.Add(sh.retiredSpent.load())
		sh.mu.Lock()
		// Live cells and the retired archive are read under the same mu
		// that Rotate folds under, so each attributed value is seen
		// exactly once.
		qs := sh.queries.Load()
		for i, name := range qs.names {
			perQ[name] += qs.value(i)
		}
		for name, v := range sh.retired {
			retQ[name] += v
		}
		for ep, v := range sh.retiredByEpoch {
			retByEpoch[ep] += v
		}
		for _, sl := range sh.streams {
			s.Streams++
			// The composed per-event bound is a lifetime maximum, across
			// epochs — read it regardless of pending lazy rotation.
			if c := sl.maxComposed.load(); dp.Epsilon(c) > s.MaxComposed {
				s.MaxComposed = dp.Epsilon(c)
			}
			sp, current, exhausted := l.classify(sl, epoch, sh.charge.load())
			if !current {
				retired.Add(sp)
				continue
			}
			spent.Add(sp)
			if dp.Epsilon(sp) > s.MaxStreamSpent {
				s.MaxStreamSpent = dp.Epsilon(sp)
			}
			if exhausted {
				s.Exhausted++
			}
		}
		sh.mu.Unlock()
	}
	s.Spent = dp.Epsilon(spent.Value())
	s.Retired = dp.Epsilon(retired.Value())
	s.PerQuery = sortedSpend(perQ)
	s.RetiredQueries = sortedSpend(retQ)
	for ep, v := range retByEpoch {
		s.RetiredByEpoch = append(s.RetiredByEpoch, EpochSpend{Epoch: ep, Spent: v})
	}
	sort.Slice(s.RetiredByEpoch, func(i, j int) bool {
		return s.RetiredByEpoch[i].Epoch < s.RetiredByEpoch[j].Epoch
	})
	return s
}

// NamespaceSpend is one stream-key namespace's aggregated budget position —
// the per-tenant view the network serving layer reports, with stream keys of
// the form "tenant/stream".
type NamespaceSpend struct {
	// Namespace is the key prefix up to (not including) the delimiter;
	// streams whose key has no delimiter aggregate under "".
	Namespace string
	// Streams counts the namespace's live stream ledgers.
	Streams int
	// Spent totals the namespace's live per-stream spend (parallel
	// composition across the namespace's disjoint streams). Spend archived
	// by eviction or budget-epoch rotation — including that of a stream
	// that has not released since the rotation — is not included.
	Spent dp.Epsilon
	// MaxStreamSpent is the namespace's largest live per-stream spend —
	// its per-data-subject sequential bound this epoch.
	MaxStreamSpent dp.Epsilon
	// Exhausted counts live streams whose remaining grant no longer covers
	// one release at the shard's current charge.
	Exhausted int
}

// classify reads a live stream's spend under the budget epoch: current is
// false when the stream has not released under epoch yet, so its
// accumulation belongs to a retired epoch; exhausted reports that a current
// stream's remaining grant no longer covers one release at charge.
func (l *Ledger) classify(sl *StreamLedger, epoch uint64, charge float64) (sp float64, current, exhausted bool) {
	sp = sl.spent.load()
	if sl.epoch.Load() != epoch {
		return sp, false, false
	}
	return sp, true, float64(l.grant)-sp < charge
}

// SpendByNamespace groups live per-stream spend under the given budget epoch
// by the stream-key prefix up to the first delim, sorted by namespace. Safe
// to call at any time, including while serving.
func (l *Ledger) SpendByNamespace(delim byte, epoch uint64) []NamespaceSpend {
	agg := make(map[string]*NamespaceSpend)
	for _, sh := range l.shards {
		charge := sh.charge.load()
		sh.mu.Lock()
		for key, sl := range sh.streams {
			ns := ""
			for i := 0; i < len(key); i++ {
				if key[i] == delim {
					ns = key[:i]
					break
				}
			}
			a := agg[ns]
			if a == nil {
				a = &NamespaceSpend{Namespace: ns}
				agg[ns] = a
			}
			a.Streams++
			sp, current, exhausted := l.classify(sl, epoch, charge)
			if !current {
				continue
			}
			a.Spent += dp.Epsilon(sp)
			if dp.Epsilon(sp) > a.MaxStreamSpent {
				a.MaxStreamSpent = dp.Epsilon(sp)
			}
			if exhausted {
				a.Exhausted++
			}
		}
		sh.mu.Unlock()
	}
	out := make([]NamespaceSpend, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Namespace < out[j].Namespace })
	return out
}

func sortedSpend(m map[string]float64) []QuerySpend {
	if len(m) == 0 {
		return nil
	}
	out := make([]QuerySpend, 0, len(m))
	for name, v := range m {
		out = append(out, QuerySpend{Query: name, Eps: dp.Epsilon(v)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Query < out[j].Query })
	return out
}
