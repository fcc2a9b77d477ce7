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
// An Event is a type, a logical timestamp and a source stream —
// NewEvent(t, ts).WithSource(id) — and nothing else: the guarantee is about
// which event types occur in a window (Sec. III-A: a pattern is a sequence
// of event types), so events carry no attributes and no wall-clock time.
//
// Two mechanisms are provided: NewUniformPPM splits each private pattern's
// budget evenly across its elements (Section V-A of the paper);
// NewAdaptivePPM reallocates the split with a stepwise search over
// historical data to maximize target-query quality (Section V-B,
// Algorithm 1). The internal/baseline package additionally implements the
// w-event DP and landmark-privacy mechanisms the paper compares against, and
// internal/experiment regenerates the paper's evaluation by calling each
// mechanism's Run; engines and runtimes serve only the two PPMs and refuse
// anything else with ErrUnservedMechanism.
//
// Beyond the batch API, NewRuntime starts a sharded streaming serving layer
// for continuous multi-tenant serving: events from many concurrent streams
// are ingested through bounded per-shard queues (a producer whose shard is
// full waits; IngestContext bounds the wait), windowed incrementally per stream
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
// and a release the grant cannot cover is denied, suppressed, or throttled
// per RuntimeConfig.BudgetPolicy — for that stream alone. Released answers
// carry SpentEpsilon/RemainingEpsilon, RuntimeStats.Budget reports the
// ledger (including the w-event composed per-event loss under sliding
// overlap), and only Runtime.RotateBudget grants a fresh epoch — see the
// README's "Privacy accounting" section.
//
// Setting RuntimeConfig.Durability makes that state durable: every ledger
// charge, epoch rotation, and registration change is written ahead to a WAL
// in DurabilityConfig.Dir strictly before the answer it covers is published,
// and periodic checkpoints snapshot windower and ledger state. Restarting
// against the same directory recovers — checkpoint plus WAL-tail replay —
// under a one-sided invariant: a crash may over-count privacy spend (a
// charge whose answer never left) but never under-counts it. Registration
// records are an audit trail: recovery does not re-apply them, so a
// restarted runtime serves the Private and Targets of its RuntimeConfig. See
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
	// Pattern is a detected pattern instance (a sequence of events).
	Pattern = event.Pattern
	// Window is one window cut from a stream: its interval and the per-type
	// tally of the events inside it.
	Window = stream.Window
	// PatternType is a group of patterns specified by a query; data
	// subjects register their private patterns as pattern types.
	PatternType = core.PatternType
	// Mechanism perturbs per-window existence indicators; every PPM and
	// baseline implements it, but only the two PPMs can be served.
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
	// Answer is one privacy-protected query answer: the window's interval
	// and the released bit, never the window's contents.
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
	// HashSharder is the runtime's stream-key router (FNV-1a): it names the
	// shard that serves a stream.
	HashSharder = runtime.HashSharder
	// Windower incrementally cuts one stream into tumbling or sliding
	// windows of type tallies, assembled from panes of the slide width;
	// see NewSlidingWindower.
	Windower = runtime.Windower
	// LatenessPolicy selects how out-of-order events are treated.
	LatenessPolicy = runtime.LatenessPolicy
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
	// PushAccepted, PushLate, and PushFuture are the Windower.Push results.
	PushAccepted = runtime.PushAccepted
	PushLate     = runtime.PushLate
	PushFuture   = runtime.PushFuture
	// BudgetDeny refuses a release the stream's budget cannot cover;
	// BudgetSuppress publishes a data-independent placeholder instead;
	// BudgetThrottle halves the answer cadence near exhaustion, then
	// denies. Each acts on the exhausted stream alone; a fresh grant comes
	// only from Runtime.RotateBudget. See RuntimeConfig.Budget.
	BudgetDeny     = runtime.BudgetDeny
	BudgetSuppress = runtime.BudgetSuppress
	BudgetThrottle = runtime.BudgetThrottle
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

// ErrUnservedMechanism is returned (wrapped) by NewPrivateEngine, NewRuntime
// and a RuntimeConfig.MechanismFor rebuild for a mechanism other than
// UniformPPM or AdaptivePPM, e.g. a w-event baseline or a custom Mechanism.
// Compare such a mechanism by calling its Run directly.
var ErrUnservedMechanism = core.ErrUnservedMechanism

// ErrDurabilityDisabled is returned by Runtime.Checkpoint when the runtime
// was built without RuntimeConfig.Durability.
var ErrDurabilityDisabled = runtime.ErrDurabilityDisabled

// ErrSubscriptionCancelled is reported by Subscription.Err after the
// subscriber cancelled the subscription itself.
var ErrSubscriptionCancelled = runtime.ErrSubscriptionCancelled

// NewEvent constructs an event of the given type at the given logical time.
func NewEvent(t EventType, ts Timestamp) Event { return event.New(t, ts) }

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
// trusted CEP engine. seed drives the mechanism's randomness. A mechanism
// the engine cannot serve is refused with ErrUnservedMechanism.
func NewPrivateEngine(m Mechanism, private []PatternType, seed int64) (*PrivateEngine, error) {
	return core.NewPrivateEngine(m, private, seed)
}

// NewRuntime validates the configuration, builds the shards — each with its
// own mechanism instance and independently seeded engine — and starts
// serving. See RuntimeConfig for the knobs and their defaults.
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) { return runtime.New(cfg) }

// NewSlidingWindower builds an incremental windower for one stream — the
// streaming counterpart of WindowSlice: windows of the given width advancing
// by slide (a positive divisor of width), assembled from panes of the slide
// width so overlapping windows share their tally work. Its windows are
// their interval and per-type tally, like WindowSlice's: the windower keeps
// nothing of an event but its type. slide == width cuts tumbling windows,
// each of which owns its TypeCounts; a sliding window's tally buffer is
// windower-owned scratch valid only until the next Push/FlushInto — see the
// Windower.PushInto contract. lateness is only consulted under the
// ReorderBuffer policy; horizon bounds how far one event may jump past the
// stream's newest event (0 disables the bound).
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
