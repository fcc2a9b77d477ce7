// Package patterndp is the public API of the pattern-level differential
// privacy library — a Go reproduction of "Differential Privacy for
// Protecting Private Patterns in Data Streams" (Gu et al., ICDE 2023).
//
// The library lets data subjects register private pattern types, data
// consumers register target-pattern queries, and a trusted CEP engine answer
// those queries over event streams under a pattern-level ε-DP guarantee:
//
//	private, _ := patterndp.NewPatternType("hospital-trip", "enter-taxi", "near-hospital")
//	ppm, _ := patterndp.NewUniformPPM(1.0, private)
//	engine, _ := patterndp.NewPrivateEngine(ppm, []patterndp.PatternType{private}, seed)
//	engine.RegisterTarget(patterndp.Query{
//		Name:    "traffic-jam",
//		Pattern: patterndp.SeqTypes("near-hospital", "slow-speed"),
//		Window:  10,
//	})
//	answers, _ := engine.ProcessEvents(events, 10)
//
// Two mechanisms are provided: NewUniformPPM splits each private pattern's
// budget evenly across its elements (Section V-A of the paper);
// NewAdaptivePPM reallocates the split with a stepwise search over
// historical data to maximize target-query quality (Section V-B,
// Algorithm 1). The internal/baseline package additionally implements the
// w-event DP and landmark-privacy mechanisms the paper compares against, and
// internal/experiment regenerates the paper's evaluation.
//
// Beyond the batch API, NewRuntime starts a sharded streaming serving layer
// for continuous multi-tenant serving: events from many concurrent streams
// are ingested with bounded backpressure, windowed incrementally per stream
// under a configurable lateness policy, served through per-shard engines
// with independent randomness, and delivered to per-query subscribers:
//
//	rt, _ := patterndp.NewRuntime(patterndp.RuntimeConfig{
//		Shards:      8,
//		WindowWidth: 10,
//		MechanismFor: func(shard int, private []patterndp.PatternType) (patterndp.Mechanism, error) {
//			return patterndp.NewUniformPPM(1.0, private...)
//		},
//		Private: []patterndp.PatternType{private},
//		Targets: []patterndp.Query{{Name: "jam", Pattern: patterndp.SeqTypes("near-hospital", "slow-speed"), Window: 10}},
//	})
//	sub, _ := rt.Subscribe("jam")
//	go func() { for a := range sub.C() { use(a) } }()
//	rt.Ingest(ev)       // any number of producers, routed by stream key
//	rt.IngestBatch(evs) // bulk path: one channel op per touched shard
//	sub.Cancel()        // detach one consumer without disturbing serving
//	rt.Close()          // drain, flush trailing windows, close subscriptions
//
// The runtime's control plane is dynamic: RegisterPrivate/UnregisterPrivate
// and RegisterQuery/UnregisterQuery apply while traffic flows. Every change
// is stamped with a monotonically increasing Epoch and applied by each shard
// only at per-stream window boundaries, so each released RuntimeAnswer
// carries the epoch — hence the exact registration state — it was served
// under.
//
// Setting RuntimeConfig.Slide below WindowWidth serves sliding windows:
// each stream is cut into non-overlapping panes of the slide width and
// every window is assembled from a ring of per-pane tallies, so overlapping
// windows share their evaluation work instead of re-buffering and
// re-scanning events per window (see the README's "Sliding windows"
// section). Slide unset or equal to WindowWidth preserves tumbling behavior
// exactly.
//
// Setting RuntimeConfig.Budget enables privacy-budget accounting and
// admission control: every stream is granted Budget of pattern-level ε per
// budget epoch, each released window charges the mechanism's per-window ε
// against the stream's ledger at publish time (lock-free, compensated sums),
// and a release the grant cannot cover is denied, suppressed, throttled, or
// triggers an epoch rotation per RuntimeConfig.BudgetPolicy. Released
// answers carry SpentEpsilon/RemainingEpsilon, RuntimeStats.Budget reports
// the ledger (including the w-event composed per-event loss under sliding
// overlap), and Runtime.RotateBudget rotates the grant explicitly — see the
// README's "Privacy accounting" section.
//
// Setting RuntimeConfig.Durability makes that state durable: every ledger
// charge, epoch rotation, and registration change is written ahead to a WAL
// in DurabilityConfig.Dir strictly before the answer it covers is published,
// and periodic checkpoints snapshot windower and ledger state. Restarting
// against the same directory recovers — checkpoint plus WAL-tail replay —
// under a one-sided invariant: a crash may over-count privacy spend (a
// charge whose answer never left) but never under-counts it. See
// Runtime.Recovery, Runtime.Checkpoint, and the README's "Durability"
// section.
package patterndp

import (
	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/dp"
	"patterndp/internal/event"
	"patterndp/internal/runtime"
	"patterndp/internal/stream"
)

// Re-exported core types. These aliases are the supported public surface;
// the internal packages remain reachable only inside this module.
type (
	// Event is one extracted event in an event stream.
	Event = event.Event
	// EventType identifies a class of events.
	EventType = event.Type
	// Timestamp is a logical stream timestamp.
	Timestamp = event.Timestamp
	// Value is a typed event attribute value.
	Value = event.Value
	// Pattern is a detected pattern instance (a sequence of events).
	Pattern = event.Pattern
	// Window is a finite batch of events cut from a stream.
	Window = stream.Window
	// PatternType is a group of patterns specified by a query; data
	// subjects register their private patterns as pattern types.
	PatternType = core.PatternType
	// Mechanism perturbs per-window existence indicators; every PPM and
	// baseline implements it.
	Mechanism = core.Mechanism
	// UniformPPM is the uniform pattern-level PPM.
	UniformPPM = core.UniformPPM
	// AdaptivePPM is the adaptive pattern-level PPM (Algorithm 1).
	AdaptivePPM = core.AdaptivePPM
	// AdaptiveConfig parameterizes the adaptive PPM.
	AdaptiveConfig = core.AdaptiveConfig
	// IndicatorWindow is the per-window view mechanisms operate on.
	IndicatorWindow = core.IndicatorWindow
	// PrivateEngine is the trusted CEP engine with privacy protection.
	PrivateEngine = core.PrivateEngine
	// Answer is one privacy-protected query answer.
	Answer = core.Answer
	// Epsilon is a privacy budget.
	Epsilon = dp.Epsilon
	// Query is a registered continuous query.
	Query = cep.Query
	// Plan is a compiled query: the allocation-free serving-time form of
	// a Query (flattened indicator program and required-type pruning set),
	// answering it over one window's released presence indicators.
	Plan = cep.Plan
	// Expr is a pattern expression node (SEQ/AND/OR/NEG over atoms).
	Expr = cep.Expr
	// Runtime is the sharded streaming serving layer.
	Runtime = runtime.Runtime
	// RuntimeConfig parameterizes a Runtime.
	RuntimeConfig = runtime.Config
	// RuntimeAnswer is a released answer with serving provenance.
	RuntimeAnswer = runtime.Answer
	// Subscription is one consumer's cancellable handle on a query's
	// released answers.
	Subscription = runtime.Subscription
	// Epoch numbers control-plane states; every registration change
	// produces the next epoch and every answer carries the epoch it was
	// served under.
	Epoch = runtime.Epoch
	// RuntimeStats is a point-in-time snapshot of a Runtime.
	RuntimeStats = runtime.Stats
	// BudgetPolicy selects what the runtime does when a stream's remaining
	// privacy budget cannot cover a window release (see RuntimeConfig.Budget).
	BudgetPolicy = runtime.BudgetPolicy
	// BudgetSnapshot is the privacy-budget ledger's point-in-time view,
	// reported as RuntimeStats.Budget: per-stream spend and w-event
	// composed loss, admission-decision counters, and per-query spend
	// attribution.
	BudgetSnapshot = runtime.BudgetSnapshot
	// QuerySpend is one query's attributed spend in a BudgetSnapshot.
	QuerySpend = runtime.QuerySpend
	// ShardStats are one shard's serving counters.
	ShardStats = runtime.ShardStats
	// Sharder routes stream keys to shards.
	Sharder = runtime.Sharder
	// HashSharder is the default stream-key hash Sharder.
	HashSharder = runtime.HashSharder
	// Windower incrementally cuts one stream into tumbling or sliding
	// windows of type tallies (TypeCounts, no Events), assembled from
	// panes of the slide width; see NewSlidingWindower.
	Windower = runtime.Windower
	// LatenessPolicy selects how out-of-order events are treated.
	LatenessPolicy = runtime.LatenessPolicy
	// BackpressurePolicy selects what Ingest does when a shard is full.
	BackpressurePolicy = runtime.BackpressurePolicy
	// PushResult reports what a Windower did with a pushed event.
	PushResult = runtime.PushResult
	// DurabilityConfig enables the durable-state subsystem (see
	// RuntimeConfig.Durability): a write-ahead log of ledger charges, epoch
	// rotations, and registration changes — appended before an answer is
	// published — plus periodic checkpoints, so privacy spend survives
	// restarts.
	DurabilityConfig = runtime.DurabilityConfig
	// FsyncPolicy selects when WAL appends are forced to stable storage.
	FsyncPolicy = runtime.FsyncPolicy
	// RecoverySummary reports what NewRuntime restored from a non-empty WAL
	// directory (see Runtime.Recovery).
	RecoverySummary = runtime.RecoverySummary
)

// Runtime policy constants, re-exported from internal/runtime.
const (
	// DropLate discards events that arrive after their window closed.
	DropLate = runtime.DropLate
	// ReorderBuffer delays window cuts by AllowedLateness to reorder
	// stragglers into place.
	ReorderBuffer = runtime.ReorderBuffer
	// Block makes Ingest wait for shard capacity (lossless).
	Block = runtime.Block
	// DropOldest makes Ingest evict the oldest queued event (lossy).
	DropOldest = runtime.DropOldest
	// PushAccepted, PushLate, and PushFuture are the Windower.Push results.
	PushAccepted = runtime.PushAccepted
	PushLate     = runtime.PushLate
	PushFuture   = runtime.PushFuture
	// BudgetDeny refuses a release the stream's budget cannot cover;
	// BudgetSuppress publishes a data-independent placeholder instead;
	// BudgetThrottle halves the answer cadence near exhaustion, then
	// denies; BudgetRotateEpoch forces a budget-epoch rotation with a
	// fresh grant. See RuntimeConfig.Budget.
	BudgetDeny        = runtime.BudgetDeny
	BudgetSuppress    = runtime.BudgetSuppress
	BudgetThrottle    = runtime.BudgetThrottle
	BudgetRotateEpoch = runtime.BudgetRotateEpoch
	// FsyncInterval syncs the WAL on a background cadence (default),
	// FsyncAlways before every publish, FsyncOff only at checkpoints and on
	// Close. See DurabilityConfig.Fsync.
	FsyncInterval = runtime.FsyncInterval
	FsyncAlways   = runtime.FsyncAlways
	FsyncOff      = runtime.FsyncOff
)

// ErrRuntimeClosed is returned by Runtime.Ingest and Runtime.Close after the
// runtime has closed.
var ErrRuntimeClosed = runtime.ErrClosed

// ErrShardFailed is returned (wrapped) by Runtime.Ingest when the target
// shard stopped serving after an engine error; Close reports the cause.
var ErrShardFailed = runtime.ErrShardFailed

// ErrUnknownQuery is returned (wrapped) by Runtime.Subscribe and
// Runtime.UnregisterQuery for a query name with no registered query.
var ErrUnknownQuery = runtime.ErrUnknownQuery

// ErrUnknownPrivate is returned (wrapped) by Runtime.UnregisterPrivate for a
// pattern-type name with no registered private type.
var ErrUnknownPrivate = runtime.ErrUnknownPrivate

// ErrLastPrivate is returned by Runtime.UnregisterPrivate when removing the
// type would leave the runtime with an empty private set.
var ErrLastPrivate = runtime.ErrLastPrivate

// ErrStaticMechanism is returned by Runtime.RegisterPrivate when the runtime
// was configured with only the static Mechanism factory; set
// RuntimeConfig.MechanismFor to serve a dynamic private set.
var ErrStaticMechanism = runtime.ErrStaticMechanism

// ErrDurabilityDisabled is returned by Runtime.Checkpoint when the runtime
// was built without RuntimeConfig.Durability.
var ErrDurabilityDisabled = runtime.ErrDurabilityDisabled

// ErrSubscriptionCancelled is reported by Subscription.Err after the
// subscriber cancelled the subscription itself.
var ErrSubscriptionCancelled = runtime.ErrSubscriptionCancelled

// NewEvent constructs an event of the given type at the given logical time.
func NewEvent(t EventType, ts Timestamp) Event { return event.New(t, ts) }

// Int wraps an int64 attribute value.
func Int(v int64) Value { return event.Int(v) }

// Float wraps a float64 attribute value.
func Float(v float64) Value { return event.Float(v) }

// String wraps a string attribute value.
func String(v string) Value { return event.String(v) }

// Bool wraps a bool attribute value.
func Bool(v bool) Value { return event.Bool(v) }

// NewPatternType builds a pattern type from its element event types.
func NewPatternType(name string, elements ...EventType) (PatternType, error) {
	return core.NewPatternType(name, elements...)
}

// E builds an unconditional pattern atom for one event type.
func E(t EventType) Expr { return cep.E(t) }

// SeqTypes builds the sequence expression SEQ(e1, …, em) over plain types.
func SeqTypes(types ...EventType) Expr { return cep.SeqTypes(types...) }

// SeqOf builds a sequence expression over sub-expressions.
func SeqOf(parts ...Expr) Expr { return cep.SeqOf(parts...) }

// AndOf builds a conjunction expression (all parts within the window).
func AndOf(parts ...Expr) Expr { return cep.AndOf(parts...) }

// OrOf builds a disjunction expression (any part within the window).
func OrOf(parts ...Expr) Expr { return cep.OrOf(parts...) }

// NegOf builds a negation expression (inner absent from the window).
func NegOf(inner Expr) Expr { return cep.NegOf(inner) }

// TimesOf builds a repetition expression: inner occurs at least min and at
// most max times in the window (max = 0 means unbounded).
func TimesOf(inner Expr, min, max int) Expr { return cep.TimesOf(inner, min, max) }

// CompileQuery compiles a query into its serving Plan, which answers it over
// one window's released presence indicators (Plan.EvalIndicators, or
// Plan.Bind for indicators kept as a row of bits). Engines compile
// registered queries themselves; CompileQuery is for callers evaluating
// queries directly.
func CompileQuery(q Query) (*Plan, error) { return cep.Compile(q) }

// Parse compiles a textual pattern query — e.g.
// "SEQ(enter-taxi, near-hospital) WITHIN 10" — into an expression tree and
// window width (0 when no WITHIN clause is present).
func Parse(input string) (Expr, Timestamp, error) { return cep.Parse(input) }

// ParseQuery parses a named textual query, applying defaultWindow when the
// text has no WITHIN clause.
func ParseQuery(name, input string, defaultWindow Timestamp) (Query, error) {
	return cep.ParseQuery(name, input, defaultWindow)
}

// NewUniformPPM builds the uniform pattern-level PPM: total budget eps per
// private pattern type, split evenly across its elements.
func NewUniformPPM(eps Epsilon, private ...PatternType) (*UniformPPM, error) {
	return core.NewUniformPPM(eps, private...)
}

// NewAdaptivePPM fits the adaptive pattern-level PPM on historical windows.
func NewAdaptivePPM(cfg AdaptiveConfig, history []IndicatorWindow, targets []Expr, private ...PatternType) (*AdaptivePPM, error) {
	return core.NewAdaptivePPM(cfg, history, targets, private...)
}

// NewPrivateEngine wires a mechanism and its protected pattern types into a
// trusted CEP engine. seed drives the mechanism's randomness.
func NewPrivateEngine(m Mechanism, private []PatternType, seed int64) (*PrivateEngine, error) {
	return core.NewPrivateEngine(m, private, seed)
}

// NewRuntime validates the configuration, builds the shards — each with its
// own mechanism instance and independently seeded engine — and starts
// serving. See RuntimeConfig for the knobs and their defaults.
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) { return runtime.New(cfg) }

// NewWindower builds an incremental tumbling windower for one stream — the
// streaming counterpart of WindowSlice, except that its windows carry their
// per-type tally (TypeCounts, which each window owns) and no Events: the
// windower keeps nothing of an event but its type. lateness is only consulted
// under the ReorderBuffer policy; horizon bounds how far one event may jump
// past the stream's newest event (0 disables the bound).
func NewWindower(width Timestamp, policy LatenessPolicy, lateness, horizon Timestamp) *Windower {
	return runtime.NewWindower(width, policy, lateness, horizon)
}

// NewSlidingWindower builds an incremental sliding windower: windows of the
// given width advancing by slide (a positive divisor of width), assembled
// from panes of the slide width so overlapping windows share their tally
// work. Like NewWindower's, the windows carry TypeCounts but no Events;
// unlike them, a sliding window's tally buffer is windower-owned scratch
// valid only until the next Push/Flush — see the Windower.PushInto contract.
// slide == width is NewWindower: a tumbling window is a one-pane window.
func NewSlidingWindower(width, slide Timestamp, policy LatenessPolicy, lateness, horizon Timestamp) *Windower {
	return runtime.NewSlidingWindower(width, slide, policy, lateness, horizon)
}

// WindowSlice batches a time-ordered event slice into tumbling windows.
func WindowSlice(evs []Event, width Timestamp) []Window {
	return stream.WindowSlice(evs, width)
}

// IndicatorWindows converts windows into per-type indicator windows over the
// given types — the adaptive PPM's historical-data format.
func IndicatorWindows(ws []Window, types []EventType) []IndicatorWindow {
	return core.IndicatorWindows(ws, types)
}
