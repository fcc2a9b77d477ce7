package runtime

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"patterndp/internal/account"
	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/dp"
	"patterndp/internal/durable"
	"patterndp/internal/event"
	"patterndp/internal/metrics"
)

// BudgetPolicy selects what the runtime does with a window release that a
// stream's remaining privacy budget cannot cover; see Config.Budget.
type BudgetPolicy = account.Policy

// Budget admission policies, re-exported from internal/account.
const (
	// BudgetDeny refuses the release entirely.
	BudgetDeny = account.Deny
	// BudgetSuppress publishes a data-independent placeholder answer.
	BudgetSuppress = account.Suppress
	// BudgetThrottle halves the answer cadence near exhaustion, then denies.
	BudgetThrottle = account.Throttle
	// BudgetRotateEpoch forces a budget-epoch rotation with a fresh grant.
	BudgetRotateEpoch = account.RotateEpoch
)

// BudgetSnapshot is a point-in-time view of the privacy-budget ledger,
// reported as Stats.Budget.
type BudgetSnapshot = account.Snapshot

// QuerySpend is one query's attributed spend in a BudgetSnapshot.
type QuerySpend = account.QuerySpend

// BackpressurePolicy selects what Ingest does when a shard's bounded ingest
// channel is full.
type BackpressurePolicy int

const (
	// Block makes Ingest wait until the shard has capacity — lossless, and
	// the producer inherits the serving rate.
	Block BackpressurePolicy = iota
	// DropOldest makes Ingest evict the oldest queued event to admit the
	// new one — lossy, bounded latency; evictions are counted per shard.
	DropOldest
)

// String names the policy for logs and flags.
func (p BackpressurePolicy) String() string {
	switch p {
	case Block:
		return "block"
	case DropOldest:
		return "drop-oldest"
	default:
		return "unknown"
	}
}

// ErrClosed is returned by Ingest and Close after the runtime has closed.
var ErrClosed = errors.New("runtime: closed")

// ErrShardFailed is returned (wrapped, with the shard index) by Ingest when
// the target shard has stopped serving after an engine error. The underlying
// error is reported by Close.
var ErrShardFailed = errors.New("runtime: shard failed")

// Config parameterizes a Runtime. WindowWidth, Private, and one of
// Mechanism/MechanismFor are required; zero values elsewhere pick the
// documented defaults.
type Config struct {
	// Shards is the number of serving shards. Default: GOMAXPROCS.
	Shards int
	// WindowWidth is the window width applied per stream.
	WindowWidth event.Timestamp
	// Slide is how far consecutive windows advance. It must be a positive
	// divisor of WindowWidth; 0 (the default) means WindowWidth, i.e.
	// tumbling windows. Each stream is tallied per pane of the slide width
	// and every window is assembled from its WindowWidth/Slide pane
	// tallies, so overlapping windows share their evaluation work instead
	// of re-scanning events per window; a tumbling window is the one-pane
	// case. Nothing else differs: both are decided, served, logged and
	// published by the same sequence, and every answer carries an
	// interval-only window (no Events, no TypeCounts) — the runtime keeps
	// no event past its tally, and the unperturbed tally is not published
	// to subscribers. Privacy note: with Slide < WindowWidth each event
	// contributes to WindowWidth/Slide independently perturbed releases, so
	// the per-event privacy loss composes up to overlap x the per-window
	// budget — see README "Sliding windows" for the trade-off.
	Slide event.Timestamp
	// Mechanism builds shard i's own mechanism instance, so no mechanism
	// state or configuration is shared between shards. It is re-invoked
	// whenever a control-plane epoch changes the private set (see
	// UnregisterPrivate) — shards rebuild independently, so the factory
	// must be safe for concurrent calls and stay callable for the
	// runtime's lifetime. Because its mechanism cannot adapt to private
	// types it was not built over, RegisterPrivate requires MechanismFor
	// instead.
	Mechanism func(shard int) (core.Mechanism, error)
	// MechanismFor, when set, takes precedence over Mechanism: it builds
	// shard i's mechanism over the given private set and is re-invoked on
	// every private-set epoch (concurrently across shards, like
	// Mechanism), so budget splits follow the live set and RegisterPrivate
	// becomes available. The slice is a private copy the factory may
	// retain.
	//
	// Where it runs: once per shard at New, and once per shard per
	// private-set epoch on that shard's serving goroutine, at the first
	// window boundary after the epoch — between two windows, with every
	// stream of the shard waiting (ppm_control_rebuild_seconds records the
	// wait). A factory that fits a mechanism (core.NewAdaptivePPM) should
	// therefore hold its history and targets ready and keep the fit short:
	// about 1 ms on 100 history windows and 10 ms on 1000 at the paper's
	// pattern sizes.
	MechanismFor func(shard int, private []core.PatternType) (core.Mechanism, error)
	// Private are the initially protected pattern types, registered on
	// every shard. At least one is required, and the set never shrinks to
	// zero (see ErrLastPrivate); churn goes through RegisterPrivate and
	// UnregisterPrivate.
	Private []core.PatternType
	// Targets are the data consumers' initial queries, registered on every
	// shard. May be empty: queries can be registered while serving via
	// RegisterQuery, and windows closed while no query is registered are
	// cut (and counted) but answer nothing.
	Targets []cep.Query
	// Seed drives all mechanism randomness; each shard's engine derives an
	// independent seed from it.
	Seed int64
	// Sharder routes stream keys to shards. Default: HashSharder.
	Sharder Sharder
	// Lateness selects the per-stream out-of-order policy.
	Lateness LatenessPolicy
	// AllowedLateness is how far the watermark trails the newest event
	// under ReorderBuffer.
	AllowedLateness event.Timestamp
	// Horizon bounds how far past a stream's newest event one event may
	// jump — and therefore how many gap windows (each served and
	// released) a single runaway timestamp can force; beyond it the event
	// is rejected and counted. 0 disables the bound.
	Horizon event.Timestamp
	// EvictAfter bounds per-stream state under stream-key churn: when a
	// shard has served this many events without one from a given stream,
	// that stream's trailing windows are flushed and answered and its
	// state is freed (a later event for it starts a fresh feed). 0 keeps
	// every stream's state until Close.
	EvictAfter int64
	// Backpressure selects the full-ingest-channel policy.
	Backpressure BackpressurePolicy
	// ShardBuffer is each shard's ingest-channel capacity, counted in
	// messages: a message is one Ingest event or one IngestBatch
	// sub-batch. Default: 256.
	ShardBuffer int
	// SubscriberBuffer is each subscription's channel capacity. Default: 64.
	SubscriberBuffer int
	// Budget, when positive, enables privacy-budget accounting and
	// admission control: every stream is granted Budget of pattern-level ε
	// per budget epoch, every released window charges the mechanism's
	// per-window ε (Mechanism.TotalEpsilon) against the stream's grant at
	// publish time, and a release the grant cannot cover is handled by
	// BudgetPolicy. Enforcement composes sequentially per stream with
	// compensated sums — released answers provably never compose past the
	// grant under BudgetDeny — and Stats.Budget reports the ledger,
	// including the w-event composed per-event loss under sliding overlap.
	// 0 (the default) disables accounting: there is no ledger, every window
	// is admitted at zero charge, and the per-answer budget fields stay 0.
	Budget dp.Epsilon
	// BudgetPolicy selects the exhaustion behavior when Budget is set:
	// BudgetDeny (default), BudgetSuppress, BudgetThrottle, or
	// BudgetRotateEpoch. See the account package for the exact semantics.
	BudgetPolicy BudgetPolicy
	// Durability, when set, enables the durable-state subsystem: ledger
	// charges, rotations, and registration changes are written ahead of
	// publishing, windower and ledger state is checkpointed, and New
	// recovers both from a non-empty Durability.Dir — so privacy spend
	// survives restarts. Nil (the default) keeps the runtime fully
	// in-memory. See DurabilityConfig.
	Durability *DurabilityConfig
	// Metrics, when set, registers the runtime's observability surface on
	// the registry: per-shard serving counters (the same atomics Snapshot
	// reads), ingest-admission and per-shard window-serving latency
	// histograms, budget-ledger decision counters and spend gauges, and —
	// through Durability — WAL commit/fsync/checkpoint histograms. A
	// registry must back at most one Runtime. Nil (the default) disables
	// all instrumentation with zero hot-path overhead.
	Metrics *metrics.Registry
	// TraceSample, in [0, 1], enables sampled event-lifecycle tracing:
	// every ~1/TraceSample-th ingest batch is followed through shard hop,
	// serve, and publish, with stage durations recorded in ppm_trace_*
	// histograms, answers stamped with Answer.TraceNanos for downstream
	// delivery timing, and one structured slog record per traced batch.
	// 0 (the default) disables tracing.
	TraceSample float64
	// TraceLog receives the per-traced-batch structured records when
	// TraceSample is set; nil uses slog.Default().
	TraceLog *slog.Logger
}

// newWindower builds one stream's windower for the configuration.
func (c Config) newWindower() *Windower {
	return NewSlidingWindower(c.WindowWidth, c.slideOrWidth(), c.Lateness, c.AllowedLateness, c.Horizon)
}

// slideOrWidth resolves the effective slide (0 defaults to the width).
func (c Config) slideOrWidth() event.Timestamp {
	if c.Slide == 0 {
		return c.WindowWidth
	}
	return c.Slide
}

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = goruntime.GOMAXPROCS(0)
	}
	if c.Sharder == nil {
		c.Sharder = HashSharder{}
	}
	if c.ShardBuffer == 0 {
		c.ShardBuffer = 256
	}
	if c.SubscriberBuffer == 0 {
		c.SubscriberBuffer = 64
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.Shards < 1:
		return fmt.Errorf("runtime: Shards = %d", c.Shards)
	case c.WindowWidth <= 0:
		return fmt.Errorf("runtime: WindowWidth = %d", c.WindowWidth)
	case c.Slide < 0 || c.Slide > c.WindowWidth || (c.Slide > 0 && c.WindowWidth%c.Slide != 0):
		return fmt.Errorf("runtime: Slide = %d must be a positive divisor of WindowWidth = %d", c.Slide, c.WindowWidth)
	case c.Mechanism == nil && c.MechanismFor == nil:
		return fmt.Errorf("runtime: nil Mechanism and MechanismFor factories")
	case len(c.Private) == 0:
		return fmt.Errorf("runtime: no private pattern types")
	case c.AllowedLateness < 0:
		return fmt.Errorf("runtime: AllowedLateness = %d", c.AllowedLateness)
	case c.Horizon < 0:
		return fmt.Errorf("runtime: Horizon = %d", c.Horizon)
	case c.EvictAfter < 0:
		return fmt.Errorf("runtime: EvictAfter = %d", c.EvictAfter)
	case c.ShardBuffer < 1:
		return fmt.Errorf("runtime: ShardBuffer = %d", c.ShardBuffer)
	case c.SubscriberBuffer < 0:
		return fmt.Errorf("runtime: SubscriberBuffer = %d", c.SubscriberBuffer)
	case !c.Budget.Valid():
		return fmt.Errorf("runtime: invalid Budget %v", c.Budget)
	case !c.BudgetPolicy.Valid():
		return fmt.Errorf("runtime: unknown BudgetPolicy %d", c.BudgetPolicy)
	case c.TraceSample < 0 || c.TraceSample > 1 || math.IsNaN(c.TraceSample):
		return fmt.Errorf("runtime: TraceSample = %v outside [0,1]", c.TraceSample)
	}
	if d := c.Durability; d != nil {
		switch {
		case d.Dir == "":
			return fmt.Errorf("runtime: Durability.Dir is required")
		case d.CheckpointEvery < 0:
			return fmt.Errorf("runtime: Durability.CheckpointEvery = %v", d.CheckpointEvery)
		}
	}
	for _, q := range c.Targets {
		if err := q.Validate(); err != nil {
			return fmt.Errorf("runtime: target query: %w", err)
		}
	}
	return nil
}

// Runtime is the sharded streaming serving layer: it continuously ingests a
// multi-stream event feed, windows each stream incrementally, serves closed
// windows through per-shard PrivateEngines, and delivers released answers to
// per-query subscribers. On top of serving it runs a dynamic control plane:
// private pattern types and target queries can be registered and
// unregistered while traffic flows, with every change stamped by an Epoch
// that shards apply only at per-stream window boundaries. All methods are
// safe for concurrent use.
type Runtime struct {
	cfg    Config
	shards []*shard
	bus    *bus
	wg     sync.WaitGroup
	start  time.Time

	// ledger is the privacy-budget accounting subsystem; nil unless
	// Config.Budget is set. Shards charge their single-writer sub-ledgers
	// at answer-publish time, lock-free.
	ledger *account.Ledger

	// ctl is the current control-plane state; ctlMu serializes mutations
	// (readers go straight to the atomic pointer).
	ctl   atomic.Pointer[controlState]
	ctlMu sync.Mutex

	// durLog is the durable-state subsystem's WAL and checkpoint store; nil
	// unless Config.Durability is set. recov reports what New restored from
	// it; ckptStop/ckptWG manage the background checkpoint loop.
	durLog   *durable.Log
	recov    *RecoverySummary
	ckptStop chan struct{}
	ckptWG   sync.WaitGroup

	// obs is the instrumentation state; nil when Config.Metrics and
	// Config.TraceSample are both unset, and every hot path gates on that.
	obs *runtimeObs

	// batchPool recycles the per-shard sub-batches IngestBatch routes
	// through the shard channels; shards return them after serving.
	batchPool sync.Pool

	mu     sync.RWMutex
	closed bool

	// closing arbitrates which CloseContext call runs the close sequence;
	// done closes when that sequence — drain, flush, bus shutdown — has
	// completed, and closeErr is valid after that. noFlush makes the drain
	// skip the trailing-window flush (Freeze): open windows travel in the
	// final checkpoint's windower state instead of publishing as partials.
	closing  atomic.Bool
	noFlush  atomic.Bool
	done     chan struct{}
	closeErr error
}

// New validates the configuration, builds the shards — each with its own
// mechanism instance and independently seeded engine — and starts serving.
func New(cfg Config) (*Runtime, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rt := &Runtime{
		cfg:      cfg,
		bus:      newBus(cfg.SubscriberBuffer),
		start:    time.Now(),
		done:     make(chan struct{}),
		ckptStop: make(chan struct{}),
	}
	if cfg.Metrics != nil || cfg.TraceSample > 0 {
		rt.obs = newRuntimeObs(cfg)
	}
	st := newControlState(cfg.Private, cfg.Targets)
	var rec *durable.Recovery
	if d := cfg.Durability; d != nil {
		dlog, err := durable.Open(d.Dir, durable.Options{
			Shards:        cfg.Shards,
			Fsync:         d.Fsync,
			FsyncInterval: d.FsyncInterval,
			SegmentBytes:  d.SegmentBytes,
			Metrics:       cfg.Metrics,
		})
		if err != nil {
			return nil, fmt.Errorf("runtime: durability: %w", err)
		}
		rt.durLog = dlog
		if rec = dlog.Recovery(); rec != nil {
			// Resume epoch numbering at or past the recovered epochs before
			// anything reads the control state.
			applyRecoveredEpochs(st, rec)
		}
	}
	fail := func(err error) (*Runtime, error) {
		if rt.durLog != nil {
			rt.durLog.Close() //nolint:errcheck // construction already failed
		}
		return nil, err
	}
	rt.ctl.Store(st)
	if cfg.Budget > 0 {
		overlap := int(cfg.WindowWidth / cfg.slideOrWidth())
		rt.ledger = account.NewLedger(cfg.Budget, cfg.BudgetPolicy, overlap, cfg.Shards)
	}
	for i := 0; i < cfg.Shards; i++ {
		eng, err := rt.buildEngine(i, st)
		if err != nil {
			return fail(err)
		}
		sh := &shard{
			id:      i,
			rt:      rt,
			engine:  eng,
			cur:     st,
			in:      make(chan ingestMsg, cfg.ShardBuffer),
			streams: make(map[string]*streamState),
		}
		sh.epoch.Store(uint64(st.epoch))
		if rt.ledger != nil {
			sh.led = rt.ledger.Shard(i)
			sh.charge = float64(eng.Mechanism().TotalEpsilon())
			sh.led.SetCharge(sh.charge)
			sh.led.SetQueries(st.targetNames())
		}
		if rt.durLog != nil {
			sh.wal = rt.durLog.Shard(i)
		}
		rt.shards = append(rt.shards, sh)
	}
	if rec != nil {
		if err := rt.restore(rec); err != nil {
			return fail(err)
		}
	}
	if cfg.Metrics != nil {
		rt.registerMetrics(cfg.Metrics)
	}
	rt.wg.Add(len(rt.shards))
	for _, sh := range rt.shards {
		go sh.run()
	}
	if d := cfg.Durability; d != nil && d.CheckpointEvery > 0 {
		rt.ckptWG.Add(1)
		go rt.checkpointLoop(d.CheckpointEvery)
	}
	return rt, nil
}

// buildEngine constructs one shard's serving engine for a control state: a
// fresh mechanism instance from the configured factory over the state's
// private set, an engine seed decorrelated per shard and per private-set
// epoch (so a rebuilt engine never replays an earlier engine's noise
// sequence), and the state's target queries.
func (rt *Runtime) buildEngine(shard int, st *controlState) (*core.PrivateEngine, error) {
	var m core.Mechanism
	var err error
	if rt.cfg.MechanismFor != nil {
		private := make([]core.PatternType, len(st.private))
		copy(private, st.private)
		m, err = rt.cfg.MechanismFor(shard, private)
	} else {
		m, err = rt.cfg.Mechanism(shard)
	}
	if err != nil {
		return nil, fmt.Errorf("runtime: shard %d mechanism: %w", shard, err)
	}
	seed := shardSeed(rt.cfg.Seed, shard)
	if st.privEpoch > 0 {
		seed = core.MixSeed(seed, int64(st.privEpoch))
	}
	eng, err := core.NewPrivateEngine(m, st.private, seed)
	if err != nil {
		return nil, fmt.Errorf("runtime: shard %d engine: %w", shard, err)
	}
	if err := eng.SetTargetPlans(st.plans); err != nil {
		return nil, fmt.Errorf("runtime: shard %d targets: %w", shard, err)
	}
	return eng, nil
}

// shardSeed derives shard i's engine seed from the runtime seed with the
// avalanche mix the engine also applies per call. Both layers must avalanche:
// were either linear, shard i's call n and shard j's call m would collide
// whenever i+n == j+m, and two shards would perturb different windows with
// identical noise.
func shardSeed(seed int64, i int) int64 {
	return core.MixSeed(seed, int64(i)+1)
}

// Shards returns the number of serving shards.
func (rt *Runtime) Shards() int { return len(rt.shards) }

// Ingest routes one event to its stream's shard, applying the configured
// backpressure policy when the shard's channel is full. Events of one stream
// key may be ingested from one goroutine only (or externally ordered);
// different streams may ingest concurrently. Under Block backpressure Ingest
// waits without bound; use IngestContext to bound the wait.
func (rt *Runtime) Ingest(e event.Event) error {
	return rt.IngestContext(context.Background(), e)
}

// IngestContext is Ingest with cancellation plumbed through the
// backpressure wait: when the target shard's channel is full and ctx ends,
// it returns ctx's error with the event not ingested. A context that is
// already done may still ingest when the shard has capacity; it never
// blocks.
func (rt *Runtime) IngestContext(ctx context.Context, e event.Event) error {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if rt.closed {
		return ErrClosed
	}
	sh := rt.shards[rt.cfg.Sharder.Shard(streamKey(e), len(rt.shards))]
	return rt.send(ctx, sh, ingestMsg{ev: e})
}

// IngestBatch routes a batch of events to their streams' shards with one
// channel operation per touched shard, amortizing the per-event
// synchronization cost of Ingest — the bulk path for high-rate producers.
// Relative order is preserved per stream key. The input slice is copied and
// stays owned by the caller, who may reuse it immediately. Like Ingest,
// events of one stream key must be batched from one goroutine only (or
// externally ordered).
func (rt *Runtime) IngestBatch(evs []event.Event) error {
	return rt.IngestBatchContext(context.Background(), evs)
}

// IngestBatchContext is IngestBatch with cancellation plumbed through the
// backpressure waits. On error, events already handed to shards stay
// ingested; the remainder of the batch is discarded — producers that need
// exactly-once delivery should treat a batch error as fatal for the stream.
func (rt *Runtime) IngestBatchContext(ctx context.Context, evs []event.Event) error {
	if len(evs) == 0 {
		return nil
	}
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if rt.closed {
		return ErrClosed
	}
	// Admission timing and trace sampling are per batch, so the per-event
	// cost amortizes to ~0; an unobserved runtime reads no clock at all.
	var start time.Time
	var t0 int64
	if o := rt.obs; o != nil {
		start = time.Now()
		t0 = o.sampleTrace(start)
	}
	n := len(rt.shards)
	// Batches are usually runs of one stream key, so the shard of the
	// previous key is cached and re-hashing only happens on key change.
	lastKey := streamKey(evs[0])
	lastShard := rt.cfg.Sharder.Shard(lastKey, n)
	route := func(e event.Event) int {
		if k := streamKey(e); k != lastKey {
			lastKey = k
			lastShard = rt.cfg.Sharder.Shard(k, n)
		}
		return lastShard
	}
	// Single-shard fast path: the common case of one producer batching
	// one stream needs no routing table, just one pooled copy.
	first := lastShard
	single := true
	for _, e := range evs[1:] {
		if route(e) != first {
			single = false
			break
		}
	}
	if single {
		err := rt.send(ctx, rt.shards[first], ingestMsg{batch: rt.copyBatch(evs), t0: t0})
		if err == nil && rt.obs != nil {
			rt.obs.admit.ObserveSince(start)
		}
		return err
	}
	// Partition into per-shard sub-batches, preserving input order within
	// each shard (hence per stream key).
	buckets := make([][]event.Event, n)
	for _, e := range evs {
		i := route(e)
		if buckets[i] == nil {
			buckets[i] = rt.newBatch(len(evs))
		}
		buckets[i] = append(buckets[i], e)
	}
	for i, b := range buckets {
		if b == nil {
			continue
		}
		// Every sub-batch shares the trace origin: a multi-shard traced
		// batch records one stage set per touched shard.
		if err := rt.send(ctx, rt.shards[i], ingestMsg{batch: b, t0: t0}); err != nil {
			for _, rest := range buckets[i+1:] {
				if rest != nil {
					rt.recycleBatch(rest)
				}
			}
			return err
		}
	}
	if rt.obs != nil {
		rt.obs.admit.ObserveSince(start)
	}
	return nil
}

// send delivers one message to a shard under the configured backpressure
// policy. Callers hold rt.mu.RLock.
func (rt *Runtime) send(ctx context.Context, sh *shard, msg ingestMsg) error {
	if sh.failed.Load() {
		if msg.batch != nil {
			rt.recycleBatch(msg.batch)
		}
		return fmt.Errorf("runtime: shard %d: %w", sh.id, ErrShardFailed)
	}
	if rt.cfg.Backpressure == DropOldest {
		for {
			select {
			case sh.in <- msg:
				return nil
			default:
			}
			if err := ctx.Err(); err != nil {
				if msg.batch != nil {
					rt.recycleBatch(msg.batch)
				}
				return err
			}
			select {
			case old := <-sh.in:
				if old.ckpt != nil {
					// An evicted checkpoint request must still be answered:
					// its caller is waiting on the (buffered) reply channel.
					old.ckpt <- shardCkptResult{err: fmt.Errorf("runtime: shard %d: checkpoint evicted by backpressure", sh.id)}
					continue
				}
				sh.stats.droppedIngest.Add(old.size())
				if old.batch != nil {
					rt.recycleBatch(old.batch)
				}
			default:
			}
		}
	}
	select {
	case sh.in <- msg:
		return nil
	case <-ctx.Done():
		if msg.batch != nil {
			rt.recycleBatch(msg.batch)
		}
		return ctx.Err()
	}
}

// newBatch takes a pooled event buffer with capacity for up to n events.
func (rt *Runtime) newBatch(n int) []event.Event {
	if b, ok := rt.batchPool.Get().(*[]event.Event); ok {
		return (*b)[:0]
	}
	return make([]event.Event, 0, n)
}

// copyBatch copies the caller's events into a pooled buffer the shard will
// recycle after serving.
func (rt *Runtime) copyBatch(evs []event.Event) []event.Event {
	return append(rt.newBatch(len(evs)), evs...)
}

// recycleBatch returns a batch buffer to the pool once its events have been
// served (or dropped). Events are value types, so no contents escape.
func (rt *Runtime) recycleBatch(b []event.Event) {
	b = b[:0]
	rt.batchPool.Put(&b)
}

// Subscribe opens a subscription delivering released answers for the named
// query; the empty name subscribes to every query. Subscribing to a name
// with no registered query returns ErrUnknownQuery (wrapped) — register the
// query first. Answers for one stream arrive in window order (indices
// restart at 0 if the stream is evicted and returns; see Config.EvictAfter);
// interleaving across streams is unspecified. Drain Subscription.C until it
// closes or call Cancel — an abandoned subscription eventually stalls
// serving.
func (rt *Runtime) Subscribe(query string) (*Subscription, error) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if err := rt.subscribable(query); err != nil {
		return nil, err
	}
	return rt.bus.subscribe(query), nil
}

// Attach is Subscribe for a caller-supplied Sink: the sink's Deliver is called
// on the shard goroutines with the named query's answers (every query's for
// the empty name), under the Sink contract, until the returned detach is
// called or the runtime closes. detach is idempotent; a shard already
// publishing may deliver one more batch after it returns. Once Close or
// Freeze has returned no shard is alive, so no Deliver is in flight and none
// follows. An attached sink counts in OpenSubscriptions until then.
func (rt *Runtime) Attach(query string, sink Sink) (detach func(), err error) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if err := rt.subscribable(query); err != nil {
		return nil, err
	}
	return rt.bus.attach(query, sink, nil), nil
}

// subscribable vets a subscription request; the caller holds rt.mu, which
// orders the check before the close sequence's bus shutdown.
func (rt *Runtime) subscribable(query string) error {
	if rt.closed {
		return ErrClosed
	}
	if query != "" && !rt.ctl.Load().queries[query] {
		return fmt.Errorf("%w: %q", ErrUnknownQuery, query)
	}
	return nil
}

// OpenSubscriptions counts the live subscriptions on the answer bus across
// every query, including subscribe-all subscriptions. It exists so serving
// layers can assert that detaching consumers (a closed network session, say)
// released their handles rather than leaking them.
func (rt *Runtime) OpenSubscriptions() int {
	return rt.bus.count()
}

// Close stops ingestion, drains every shard — trailing partial windows are
// flushed and answered — then closes all subscriptions. It returns the first
// shard serving error, if any. Ingest calls racing with Close either land
// before the drain or fail with ErrClosed.
func (rt *Runtime) Close() error {
	return rt.CloseContext(context.Background())
}

// CloseContext is Close with a bounded wait: it initiates the close
// sequence, then waits for the drain to complete or ctx to end. On
// cancellation it returns ctx's error while the close sequence keeps running
// in the background (subscriptions still close once it finishes — watch Done
// and read Err for the outcome); the close is already initiated either way,
// so subsequent calls return ErrClosed. The entire sequence runs off the
// caller's goroutine, so ctx bounds the wait even while producers blocked in
// Ingest are wedging the runtime lock.
func (rt *Runtime) CloseContext(ctx context.Context) error {
	if !rt.closing.CompareAndSwap(false, true) {
		return ErrClosed
	}
	go rt.closeSequence()
	select {
	case <-rt.done:
		return rt.closeErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Freeze is the partition-handoff variant of CloseContext: it stops
// ingestion and shuts the runtime down at per-stream pane boundaries
// WITHOUT flushing trailing partial windows. Open-window state (open-pane
// tallies, pane tally rings, watermarks — type tallies only, never events)
// instead travels in the final checkpoint's windower serialization, so a
// peer process recovering from the same durable directory resumes those
// windows exactly where they stopped — no partial windows are published, no
// spend is minted or lost at the boundary. Requires Config.Durability; the
// frozen directory is the handoff payload.
func (rt *Runtime) Freeze(ctx context.Context) error {
	if rt.durLog == nil {
		return ErrDurabilityDisabled
	}
	if !rt.closing.CompareAndSwap(false, true) {
		return ErrClosed
	}
	rt.noFlush.Store(true)
	go rt.closeSequence()
	select {
	case <-rt.done:
		return rt.closeErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// closeSequence is the single close path CloseContext and Freeze share:
// stop ingest, drain the shards, cut the final checkpoint, shut the WAL and
// the bus down.
func (rt *Runtime) closeSequence() {
	rt.mu.Lock()
	rt.closed = true
	rt.mu.Unlock()
	close(rt.ckptStop)
	for _, sh := range rt.shards {
		close(sh.in)
	}
	rt.wg.Wait()
	rt.ckptWG.Wait()
	for _, sh := range rt.shards {
		if sh.err != nil {
			rt.closeErr = fmt.Errorf("runtime: shard %d: %w", sh.id, sh.err)
			break
		}
	}
	if rt.durLog != nil {
		// Graceful drains end with a synchronous final checkpoint (the
		// shard goroutines have exited, so the export sees the complete
		// flushed state); a failed or crash-injected run skips it — its
		// durable state is exactly what recovery should see.
		if rt.closeErr == nil && !rt.durLog.Crashed() {
			if err := rt.finalCheckpoint(); err != nil && err != durable.ErrCrashed {
				rt.closeErr = fmt.Errorf("runtime: final checkpoint: %w", err)
			}
		}
		if err := rt.durLog.Close(); err != nil && rt.closeErr == nil {
			rt.closeErr = fmt.Errorf("runtime: wal close: %w", err)
		}
	}
	rt.bus.close()
	close(rt.done)
}

// Done returns a channel that closes once the close sequence — drain, flush,
// bus shutdown — has completed. It lets a caller whose CloseContext returned
// on cancellation observe the background completion.
func (rt *Runtime) Done() <-chan struct{} { return rt.done }

// Err returns the terminal serving error (the first shard's engine error, as
// Close would report it): nil before the close sequence completes and nil
// after a clean close.
func (rt *Runtime) Err() error {
	select {
	case <-rt.done:
		return rt.closeErr
	default:
		return nil
	}
}

// ShardStats are one shard's serving counters at a point in time.
type ShardStats struct {
	// Shard is the shard index (-1 for aggregated totals).
	Shard int
	// Epoch is the control-plane epoch the shard last applied; it trails
	// Stats.Epoch until the shard serves its next window boundary.
	Epoch Epoch
	// Streams counts stream states opened on the shard (an evicted stream
	// that returns is counted again).
	Streams int64
	// StreamsEvicted counts idle stream states flushed and freed under
	// the EvictAfter policy.
	StreamsEvicted int64
	// EventsIn counts events accepted from ingest.
	EventsIn int64
	// WindowsClosed counts windows cut and served.
	WindowsClosed int64
	// PanesClosed counts panes cut by the shard's windowers. Tumbling
	// windows are single panes, so the counter tracks WindowsClosed there;
	// under a sliding configuration it counts the shared pane cuts, each
	// merged into WindowWidth/Slide covering windows.
	PanesClosed int64
	// AnswersEmitted counts released answers published to the bus; a
	// message that fails publishes, and counts, none of its answers.
	AnswersEmitted int64
	// DroppedLate counts events discarded by the lateness policy.
	DroppedLate int64
	// DroppedFuture counts events rejected by the Horizon bound.
	DroppedFuture int64
	// DroppedIngest counts events evicted by DropOldest backpressure.
	DroppedIngest int64
	// DroppedFailed counts events discarded after the shard failed.
	DroppedFailed int64
	// Failed reports that the shard stopped serving on an engine error;
	// Ingest to it returns ErrShardFailed and Close reports the cause.
	Failed bool
}

// Stats is a point-in-time snapshot of the whole runtime.
type Stats struct {
	// Shards holds one entry per shard, in shard order.
	Shards []ShardStats
	// Epoch is the current control-plane epoch.
	Epoch Epoch
	// Overlap is how many panes cover each served window: WindowWidth
	// divided by the effective slide, 1 for tumbling configurations.
	Overlap int
	// Budget is the privacy-budget ledger snapshot: per-stream spend and
	// w-event composed loss, admission-decision counters, and the
	// per-query spend attribution. Nil unless Config.Budget is set.
	Budget *BudgetSnapshot
	// RunsDropped is always 0. It counted partial matches evicted by an
	// event-level sequence matcher, which no longer exists: every answer is
	// computed from released indicators. The field stays only until the
	// benchmark stops reading it.
	RunsDropped uint64
	// Uptime is the time since the runtime started serving.
	Uptime time.Duration
}

// Snapshot reads every shard's counters. It is cheap and safe to call at any
// time, including while serving.
func (rt *Runtime) Snapshot() Stats {
	ctl := rt.ctl.Load()
	st := Stats{
		Shards:  make([]ShardStats, len(rt.shards)),
		Epoch:   ctl.epoch,
		Overlap: int(rt.cfg.WindowWidth / rt.cfg.slideOrWidth()),
		Uptime:  time.Since(rt.start),
	}
	if rt.ledger != nil {
		st.Budget = rt.ledger.Snapshot(uint64(ctl.budgetEpoch))
	}
	for i, sh := range rt.shards {
		st.Shards[i] = ShardStats{
			Shard:          i,
			Epoch:          Epoch(sh.epoch.Load()),
			Streams:        sh.stats.streams.Load(),
			StreamsEvicted: sh.stats.streamsEvicted.Load(),
			EventsIn:       sh.stats.eventsIn.Load(),
			WindowsClosed:  sh.stats.windowsClosed.Load(),
			PanesClosed:    sh.stats.panesClosed.Load(),
			AnswersEmitted: sh.stats.answersEmitted.Load(),
			DroppedLate:    sh.stats.droppedLate.Load(),
			DroppedFuture:  sh.stats.droppedFuture.Load(),
			DroppedIngest:  sh.stats.droppedIngest.Load(),
			DroppedFailed:  sh.stats.droppedFailed.Load(),
			Failed:         sh.failed.Load(),
		}
	}
	return st
}

// BudgetGrant returns the configured per-stream ε grant (Config.Budget),
// zero when accounting is disabled. Serving layers advertise it to clients.
func (rt *Runtime) BudgetGrant() dp.Epsilon { return rt.cfg.Budget }

// SpendByNamespace groups live per-stream budget spend by the stream-key
// prefix up to the first delim byte (see account.Ledger.SpendByNamespace) —
// the per-tenant view when stream keys are namespaced "tenant/stream". Nil
// unless Config.Budget enables accounting.
func (rt *Runtime) SpendByNamespace(delim byte) []account.NamespaceSpend {
	if rt.ledger == nil {
		return nil
	}
	return rt.ledger.SpendByNamespace(delim)
}

// Totals aggregates the per-shard counters. Epoch is the minimum applied
// epoch across shards — the point every shard has caught up to.
func (st Stats) Totals() ShardStats {
	t := ShardStats{Shard: -1}
	for i, s := range st.Shards {
		if i == 0 || s.Epoch < t.Epoch {
			t.Epoch = s.Epoch
		}
		t.Streams += s.Streams
		t.StreamsEvicted += s.StreamsEvicted
		t.EventsIn += s.EventsIn
		t.WindowsClosed += s.WindowsClosed
		t.PanesClosed += s.PanesClosed
		t.AnswersEmitted += s.AnswersEmitted
		t.DroppedLate += s.DroppedLate
		t.DroppedFuture += s.DroppedFuture
		t.DroppedIngest += s.DroppedIngest
		t.DroppedFailed += s.DroppedFailed
		t.Failed = t.Failed || s.Failed
	}
	return t
}

// Throughput is the aggregate ingest rate in events per second since start.
func (st Stats) Throughput() float64 {
	return metrics.Rate(st.Totals().EventsIn, st.Uptime)
}

// Balance summarizes how evenly events spread across shards (a Summary of
// per-shard EventsIn): a high StdDev relative to Mean signals hot shards.
func (st Stats) Balance() metrics.Summary {
	xs := make([]float64, len(st.Shards))
	for i, s := range st.Shards {
		xs[i] = float64(s.EventsIn)
	}
	return metrics.Summarize(xs)
}
