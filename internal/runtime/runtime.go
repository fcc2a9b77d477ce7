package runtime

import (
	"context"
	"errors"
	"fmt"
	"math"
	goruntime "runtime"
	"slices"
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
)

// BudgetSnapshot is a point-in-time view of the privacy-budget ledger,
// reported as Stats.Budget.
type BudgetSnapshot = account.Snapshot

// QuerySpend is one query's attributed spend in a BudgetSnapshot.
type QuerySpend = account.QuerySpend

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
	// published by the same sequence, and every answer carries only its
	// window's interval — the runtime keeps no event past its tally, and
	// the unperturbed tally is not published to subscribers. Privacy note:
	// with Slide < WindowWidth each event contributes to
	// WindowWidth/Slide independently perturbed releases, so
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
	// instead. Either factory must return a mechanism the engine serves
	// (core.UniformPPM, core.AdaptivePPM or core.Identity): New, or the
	// rebuild, fails with core.ErrUnservedMechanism for any other.
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
	// ShardBuffer is each shard's ingest-channel capacity, counted in
	// messages: a message is one Ingest event or one IngestBatch
	// sub-batch. Default: 256. A producer whose shard's channel is full
	// waits for capacity, so it inherits the serving rate and nothing
	// queued is ever dropped; IngestContext and IngestBatchContext bound
	// the wait.
	ShardBuffer int
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
	// BudgetDeny (default), BudgetSuppress, or BudgetThrottle. It acts on
	// the exhausted stream alone; the budget epoch moves only when
	// RotateBudget is called. See the account package for the exact
	// semantics.
	BudgetPolicy BudgetPolicy
	// Durability, when set, enables the durable-state subsystem: ledger
	// charges, rotations, and registration changes are written ahead of
	// publishing, windower and ledger state is checkpointed, and New
	// recovers both from a non-empty Durability.Dir — so privacy spend
	// survives restarts. Nil (the default) keeps the runtime fully
	// in-memory. See DurabilityConfig.
	Durability *DurabilityConfig
	// Metrics, when set, registers the runtime's observability surface on
	// the registry: per-shard serving counters and budget-ledger decision
	// counters and spend gauges (rendered from one Snapshot per scrape),
	// ingest-admission and per-shard window-serving latency histograms, and
	// — through Durability — WAL commit/fsync/checkpoint histograms. A
	// registry must back at most one Runtime (Gather panics on duplicate
	// series). Nil (the default) disables all instrumentation.
	Metrics *metrics.Registry
	// TraceSample, in [0, 1], enables sampled event-lifecycle tracing:
	// every ~1/TraceSample-th ingest batch is followed through shard hop,
	// serve, and publish, with stage durations recorded in ppm_trace_*
	// histograms, answers stamped with Answer.TraceNanos for downstream
	// delivery timing, and one structured slog record per traced batch to
	// slog.Default(). 0 (the default) disables tracing.
	TraceSample float64
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
	if c.ShardBuffer == 0 {
		c.ShardBuffer = 256
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

	// bucketPool recycles IngestBatch's per-shard routing table: each call
	// takes its own, so concurrent producers never share one.
	bucketPool sync.Pool

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
		bus:      newBus(subscriberBuffer),
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
			Shards:  cfg.Shards,
			Fsync:   d.Fsync,
			Metrics: cfg.Metrics,
			FS:      d.fs,
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
			batches: make(chan *[]event.Event, cfg.ShardBuffer+1),
			streams: make(map[string]*streamState),
		}
		sh.epoch.Store(uint64(st.epoch))
		sh.resolveDemand(rt.bus.table.Load())
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
// epoch, and the state's target queries. The seed keeps a rebuilt engine from
// replaying an earlier engine's noise sequence only within one process: a
// recovered or adopted runtime with the same Config.Seed draws the first
// run's sequence again.
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

// Ingest routes one event to its stream's shard, waiting while the shard's
// channel is full. Events of one stream key may be ingested from one
// goroutine only (or externally ordered); different streams may ingest
// concurrently. Ingest waits without bound; use IngestContext to bound the
// wait.
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
	sh := rt.shards[HashSharder{}.Shard(streamKey(e), len(rt.shards))]
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
	return rt.ingestBatch(ctx, evs, nil)
}

// Receipt is a caller-owned completion for one batch handed to
// IngestBatchReceipt. The runtime calls Done exactly once per such call,
// once no part of the batch is left in flight: every shard message carrying
// part of it has been served, its WAL records committed and its answers
// published to every sink — or it was dropped by a failed shard, or never
// sent because the call failed. So a sink has received every answer the
// batch produced before Done runs.
//
// Done runs on a shard goroutine, or on the caller's before
// IngestBatchReceipt returns when nothing is left in flight by then; it
// must not block. A Receipt may be reused once its Done has run. Done is
// set by the caller, typically once, so a reused Receipt allocates nothing.
type Receipt struct {
	Done  func()
	parts atomic.Int32 // shard messages in flight, plus the call's own hold
}

// release drops one hold on the receipt and runs Done with the last.
func (r *Receipt) release() {
	if r.parts.Add(-1) == 0 {
		r.Done()
	}
}

// IngestBatchReceipt is IngestBatchContext that also reports, through rc,
// when the batch has been served (see Receipt). rc.Done runs exactly once
// per call, whether or not it returns an error; on error, the parts of the
// batch already handed to shards are served as IngestBatchContext describes.
func (rt *Runtime) IngestBatchReceipt(ctx context.Context, evs []event.Event, rc *Receipt) error {
	rc.parts.Store(1)
	err := rt.ingestBatch(ctx, evs, rc)
	rc.release()
	return err
}

// ingestBatch is IngestBatchContext, each shard message holding rc when it
// is non-nil.
func (rt *Runtime) ingestBatch(ctx context.Context, evs []event.Event, rc *Receipt) error {
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
	lastShard := HashSharder{}.Shard(lastKey, n)
	route := func(e event.Event) int {
		if k := streamKey(e); k != lastKey {
			lastKey = k
			lastShard = HashSharder{}.Shard(k, n)
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
		err := rt.send(ctx, rt.shards[first], ingestMsg{batch: rt.shards[first].copyBatch(evs), t0: t0, rc: rc})
		if err == nil && rt.obs != nil {
			rt.obs.admit.ObserveSince(start)
		}
		return err
	}
	// Partition into per-shard sub-batches, preserving input order within
	// each shard (hence per stream key).
	bp, _ := rt.bucketPool.Get().(*[]*[]event.Event)
	if bp == nil {
		bp = new([]*[]event.Event)
	}
	buckets := slices.Grow((*bp)[:0], n)[:n]
	defer func() {
		clear(buckets)
		*bp = buckets
		rt.bucketPool.Put(bp)
	}()
	for _, e := range evs {
		i := route(e)
		if buckets[i] == nil {
			buckets[i] = rt.shards[i].takeBatch(len(evs))
		}
		*buckets[i] = append(*buckets[i], e)
	}
	for i, b := range buckets {
		if b == nil {
			continue
		}
		// Every sub-batch shares the trace origin: a multi-shard traced
		// batch records one stage set per touched shard.
		if err := rt.send(ctx, rt.shards[i], ingestMsg{batch: b, t0: t0, rc: rc}); err != nil {
			for j := i + 1; j < n; j++ {
				if buckets[j] != nil {
					rt.shards[j].recycleBatch(buckets[j])
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

// send delivers one message to a shard, waiting for capacity until ctx
// ends. The message holds its receipt from here on; one that is never
// queued is discarded, releasing it. Callers hold rt.mu.RLock.
func (rt *Runtime) send(ctx context.Context, sh *shard, msg ingestMsg) error {
	if msg.rc != nil {
		msg.rc.parts.Add(1)
	}
	if sh.failed.Load() {
		sh.discard(msg)
		return fmt.Errorf("runtime: shard %d: %w", sh.id, ErrShardFailed)
	}
	select {
	case sh.in <- msg:
		return nil
	case <-ctx.Done():
		sh.discard(msg)
		return ctx.Err()
	}
}

// Subscribe opens a subscription delivering released answers for the named
// query; the empty name subscribes to every query. Subscribing to a name
// with no registered query returns ErrUnknownQuery (wrapped) — register the
// query first. Answers for one stream arrive in window order (indices
// restart at 0 if the stream is evicted and returns; see Config.EvictAfter);
// interleaving across streams is unspecified. A subscription takes effect at
// each shard's next ingest message: a message a shard is already serving when
// Subscribe returns publishes nothing to it. Drain Subscription.C until it
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
// the empty name), under the Sink contract, from each shard's next ingest
// message on — a message already being served was evaluated for the
// subscribers it started with — until the returned detach is called or the
// runtime closes. detach is idempotent; a shard already serving a message
// may deliver one more batch after it returns. Once Close or Freeze has
// returned no shard is alive, so no Deliver is in flight and none follows. An
// attached sink counts in Stats.Subscriptions until then.
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
		// flushed state); a failed run skips it — its durable state is
		// exactly what recovery should see.
		if rt.closeErr == nil {
			if err := rt.finalCheckpoint(); err != nil {
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
	// AnswersEmitted counts released answers handed to at least one sink.
	// An answer no sink listens to is never assembled, so it is not
	// counted; a message that fails publishes, and counts, none of its
	// answers.
	AnswersEmitted int64
	// DroppedLate counts events discarded by the lateness policy.
	DroppedLate int64
	// DroppedFuture counts events rejected by the Horizon bound.
	DroppedFuture int64
	// DroppedIngest is always 0. It counted events evicted by a
	// drop-oldest backpressure policy, which no longer exists: a full
	// shard makes its producer wait. The field stays only until the
	// benchmark stops reading it.
	DroppedIngest int64
	// DroppedFailed counts events discarded after the shard failed.
	DroppedFailed int64
	// QueriesDemanded is how many target queries the shard evaluates per
	// window: those some sink listens to, all of them with a subscribe-all
	// sink. A level, not a count: Totals leaves it 0.
	QueriesDemanded int64
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
	// Subscriptions counts the live answer-bus subscriptions across every
	// query, subscribe-all ones and attached sinks included.
	Subscriptions int
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
		Shards:        make([]ShardStats, len(rt.shards)),
		Epoch:         ctl.epoch,
		Overlap:       int(rt.cfg.WindowWidth / rt.cfg.slideOrWidth()),
		Subscriptions: rt.bus.count(),
		Uptime:        time.Since(rt.start),
	}
	if rt.ledger != nil {
		st.Budget = rt.ledger.Snapshot(uint64(ctl.budgetEpoch))
	}
	for i, sh := range rt.shards {
		st.Shards[i] = ShardStats{
			Shard:           i,
			Epoch:           Epoch(sh.epoch.Load()),
			Streams:         sh.stats.streams.Load(),
			StreamsEvicted:  sh.stats.streamsEvicted.Load(),
			EventsIn:        sh.stats.eventsIn.Load(),
			WindowsClosed:   sh.stats.windowsClosed.Load(),
			PanesClosed:     sh.stats.panesClosed.Load(),
			AnswersEmitted:  sh.stats.answersEmitted.Load(),
			DroppedLate:     sh.stats.droppedLate.Load(),
			DroppedFuture:   sh.stats.droppedFuture.Load(),
			DroppedFailed:   sh.stats.droppedFailed.Load(),
			QueriesDemanded: sh.demanded.Load(),
			Failed:          sh.failed.Load(),
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
	return rt.ledger.SpendByNamespace(delim, uint64(rt.ctl.Load().budgetEpoch))
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
