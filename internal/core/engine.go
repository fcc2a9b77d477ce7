package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"patterndp/internal/cep"
	"patterndp/internal/event"
	"patterndp/internal/stream"
)

// ErrUnknownTarget is returned (wrapped, with the query name) by
// UnregisterTarget when no target query with that name is registered.
var ErrUnknownTarget = errors.New("core: unknown target query")

// Answer is one privacy-protected query answer delivered to a data consumer:
// the window it refers to and the released binary detection.
type Answer struct {
	// Query names the target query answered.
	Query string
	// WindowIndex is the position of the window in the stream.
	WindowIndex int
	// Window is the covered interval.
	Window stream.Window
	// Detected is the released (perturbed) binary answer.
	Detected bool
}

// PrivateEngine is the trusted CEP engine with privacy protection wired in
// (Fig. 2). In the setup phase, data subjects register private pattern types
// and a mechanism protecting them, and data consumers register target
// queries. In the service phase, raw events flow in, windows are formed, the
// mechanism perturbs the existence indicators of private-pattern elements,
// and target queries are answered from the released indicators.
//
// PrivateEngine is safe for concurrent registration and concurrent service
// calls: every ProcessWindows call derives its own RNG from the engine seed
// and a call counter, so randomness is never shared between goroutines.
// (All provided mechanisms keep their per-sequence state local to Run; a
// custom Mechanism must do the same to be served concurrently.)
type PrivateEngine struct {
	mu        sync.RWMutex
	mechanism Mechanism
	private   []PatternType
	targets   map[string]cep.Query
	// snap is an immutable snapshot of the serving state — the name-sorted
	// target queries, their compiled plans, and the relevant-type union —
	// rebuilt on every registration change. The service phase reads the
	// snapshot with one RLock instead of re-deriving types and re-walking
	// expression trees per call, and a whole ProcessWindows batch is
	// answered against one consistent target set even while registrations
	// churn.
	snap  *planSet
	seed  int64
	calls atomic.Int64
}

// planSet is one immutable epoch of the engine's serving state: the sorted
// target queries, the compiled plan of each (parallel to targets), and the
// type table — the sorted union of private-pattern element types and
// target-query types that indicators must cover. Compiled once per
// registration change, shared by every in-flight service call.
//
// The planSet is the single owner of the type table. When the mechanism
// exposes its flip lists (the pattern-level PPMs do), the epoch also carries
// the dense serving form: a window's indicators are a flat row of bits
// indexed by table position, flips[pos] is the flip list of types[pos], and
// bound[j] is plans[j] with its operands resolved to positions.
type planSet struct {
	targets []cep.Query
	plans   []*cep.Plan
	types   []event.Type

	// dense selects the row path; flips and bound are set only with it.
	dense bool
	pos   map[event.Type]int32
	flips [][]float64
	bound []*cep.BoundPlan
}

// buildPlanSet compiles the serving state for a sorted target snapshot.
// Queries are validated at registration, so compilation cannot fail.
func buildPlanSet(m Mechanism, private []PatternType, targets []cep.Query, plans []*cep.Plan) *planSet {
	ps := &planSet{targets: targets, plans: plans}
	if ps.plans == nil {
		ps.plans = make([]*cep.Plan, len(targets))
		for i, q := range targets {
			ps.plans[i] = cep.MustCompile(q)
		}
	}
	for _, pt := range private {
		ps.types = append(ps.types, pt.Elements...)
	}
	for _, q := range targets {
		ps.types = append(ps.types, q.Pattern.Types()...)
	}
	slices.Sort(ps.types)
	ps.types = slices.Compact(ps.types)
	if fl, ok := m.(flipLister); ok {
		lists := fl.flipLists()
		ps.dense = true
		ps.flips = make([][]float64, len(ps.types))
		ps.pos = make(map[event.Type]int32, len(ps.types))
		for pos, t := range ps.types {
			ps.flips[pos] = lists[t]
			ps.pos[t] = int32(pos)
		}
		ps.bound = make([]*cep.BoundPlan, len(ps.plans))
		for j, p := range ps.plans {
			ps.bound[j] = p.Bind(ps.types, ps.pos)
		}
	}
	return ps
}

// fillRow writes the window's true existence indicators into row, which is
// laid out by the type table: one pass over the window's tally (or, for a
// window that carries none, over its events).
func (ps *planSet) fillRow(row []bool, w *stream.Window) {
	clear(row)
	if w.TypeCounts != nil {
		for _, c := range w.TypeCounts {
			if c.N > 0 {
				if pos, ok := ps.pos[c.Type]; ok {
					row[pos] = true
				}
			}
		}
		return
	}
	for _, e := range w.Events {
		if pos, ok := ps.pos[e.Type]; ok {
			row[pos] = true
		}
	}
}

// NewPrivateEngine builds an engine around the given mechanism and the
// private pattern types it protects. seed drives the mechanism's randomness.
func NewPrivateEngine(m Mechanism, private []PatternType, seed int64) (*PrivateEngine, error) {
	if m == nil {
		return nil, fmt.Errorf("core: nil mechanism")
	}
	if len(private) == 0 {
		return nil, fmt.Errorf("core: no private pattern types registered")
	}
	pe := &PrivateEngine{
		mechanism: m,
		private:   private,
		targets:   make(map[string]cep.Query),
		seed:      seed,
	}
	pe.snap = buildPlanSet(m, private, nil, nil)
	return pe, nil
}

// MixSeed derives a decorrelated child seed from a parent seed and a step
// index with one splitmix64 round: a golden-ratio increment followed by an
// avalanche finalizer. The avalanche matters — with a purely linear mix,
// (seed, step) pairs whose sums coincide would collide, and two engines
// would draw identical noise for different releases.
func MixSeed(seed, step int64) int64 {
	z := uint64(seed) + uint64(step)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// splitmix64Source is a rand.Source64 whose state is the full 64-bit seed.
// The stock rand.NewSource reduces its seed mod 2^31−1, which would collapse
// MixSeed's decorrelated space to ~2^31 values and reintroduce identical
// noise sequences between service calls after ~2^15.5 of them (birthday
// bound). Construction is also O(1), versus the stock source's ~600-word
// reseeding.
type splitmix64Source struct{ state uint64 }

func (s *splitmix64Source) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitmix64Source) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitmix64Source) Seed(seed int64) { s.state = uint64(seed) }

// rngPool recycles per-call RNGs: the Rand and its source are reseeded on
// every acquisition, so pooling changes no released noise sequence — it only
// removes two allocations from the service hot path.
var rngPool = sync.Pool{
	New: func() any {
		p := &pooledRNG{}
		p.r = rand.New(&p.src)
		return p
	},
}

type pooledRNG struct {
	src splitmix64Source
	r   *rand.Rand
}

// callRNG returns an RNG for one service call, seeded from the engine seed
// and the call index via MixSeed. Sequential callers therefore stay
// reproducible while concurrent callers each get independent randomness.
// Callers return it to the pool via putRNG once the mechanism has run.
func (pe *PrivateEngine) callRNG() *pooledRNG {
	n := pe.calls.Add(1) // 1-based so call 0 does not reuse the raw seed
	p := rngPool.Get().(*pooledRNG)
	p.r.Seed(MixSeed(pe.seed, n))
	return p
}

func putRNG(p *pooledRNG) { rngPool.Put(p) }

// Mechanism returns the engine's mechanism. It is immutable after
// construction; the streaming runtime reads its TotalEpsilon as the
// per-window release charge for privacy-budget accounting.
func (pe *PrivateEngine) Mechanism() Mechanism { return pe.mechanism }

// RegisterTarget adds a data consumer's target query, replacing any
// registered query with the same name.
func (pe *PrivateEngine) RegisterTarget(q cep.Query) error {
	if err := q.Validate(); err != nil {
		return err
	}
	pe.mu.Lock()
	defer pe.mu.Unlock()
	pe.targets[q.Name] = q
	pe.rebuildSnapshot()
	return nil
}

// UnregisterTarget removes the named target query, e.g. when a data consumer
// cancels it. It returns ErrUnknownTarget (wrapped) when no such query is
// registered. Service calls already in flight keep answering against the
// snapshot they started with; later calls no longer see the query.
func (pe *PrivateEngine) UnregisterTarget(name string) error {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	if _, ok := pe.targets[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTarget, name)
	}
	delete(pe.targets, name)
	pe.rebuildSnapshot()
	return nil
}

// SetTargets replaces the whole registered target set in one step — the
// bulk form of RegisterTarget/UnregisterTarget for callers that maintain the
// desired set elsewhere (the streaming runtime's control plane does). The
// snapshot is rebuilt once, so applying an epoch with n queries costs one
// sort instead of n.
func (pe *PrivateEngine) SetTargets(qs []cep.Query) error {
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			return err
		}
	}
	pe.mu.Lock()
	defer pe.mu.Unlock()
	pe.targets = make(map[string]cep.Query, len(qs))
	for _, q := range qs {
		pe.targets[q.Name] = q
	}
	pe.rebuildSnapshot()
	return nil
}

// rebuildSnapshot rematerializes the sorted serving snapshot, compiling a
// plan per target; callers hold pe.mu.
func (pe *PrivateEngine) rebuildSnapshot() {
	out := make([]cep.Query, 0, len(pe.targets))
	for _, q := range pe.targets {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	pe.snap = buildPlanSet(pe.mechanism, pe.private, out, nil)
}

// snapshot returns the current serving snapshot. The returned set and its
// slices are shared and must not be modified.
func (pe *PrivateEngine) snapshot() *planSet {
	pe.mu.RLock()
	defer pe.mu.RUnlock()
	return pe.snap
}

// Targets returns the registered target queries sorted by name.
func (pe *PrivateEngine) Targets() []cep.Query {
	snap := pe.snapshot().targets
	out := make([]cep.Query, len(snap))
	copy(out, snap)
	return out
}

// SetTargetPlans replaces the registered target set with already-compiled
// plans, name-sorted — the streaming runtime's control plane compiles each
// query once per epoch and hands every shard's engine the same shared plan
// set, instead of each shard recompiling on SetTargets.
func (pe *PrivateEngine) SetTargetPlans(plans []*cep.Plan) error {
	for i := range plans {
		if plans[i] == nil {
			return fmt.Errorf("core: nil plan at index %d", i)
		}
	}
	// Sort queries and plans as pairs, so an unsorted caller can never
	// pair a query name with another query's plan.
	plans = append([]*cep.Plan(nil), plans...)
	sort.Slice(plans, func(i, j int) bool { return plans[i].Query().Name < plans[j].Query().Name })
	targets := make([]cep.Query, len(plans))
	for i, p := range plans {
		targets[i] = p.Query()
	}
	pe.mu.Lock()
	defer pe.mu.Unlock()
	pe.targets = make(map[string]cep.Query, len(targets))
	for _, q := range targets {
		pe.targets[q.Name] = q
	}
	pe.snap = buildPlanSet(pe.mechanism, pe.private, targets, plans)
	return nil
}

// indicatorScratch is the reusable input buffer of one generic-path service
// call: the indicator-window slice and its per-window maps are cleared and
// refilled instead of reallocated. Safe because Mechanism.Run must not retain
// its input windows (see the interface contract).
type indicatorScratch struct {
	wins []IndicatorWindow
}

var indicatorPool = sync.Pool{New: func() any { return new(indicatorScratch) }}

// fill rebuilds the scratch to mirror ws over the given types.
func (sc *indicatorScratch) fill(ws []stream.Window, types []event.Type) []IndicatorWindow {
	if n := len(ws); cap(sc.wins) < n {
		sc.wins = append(sc.wins[:cap(sc.wins)], make([]IndicatorWindow, n-cap(sc.wins))...)
	}
	sc.wins = sc.wins[:len(ws)]
	for i := range sc.wins {
		iw := &sc.wins[i]
		iw.Index = i
		if iw.Present == nil {
			iw.Present = make(map[event.Type]bool, len(types))
			iw.Counts = make(map[event.Type]int, len(types))
		} else {
			clear(iw.Present)
			clear(iw.Counts)
		}
		for _, t := range types {
			c := ws[i].Count(t)
			iw.Counts[t] = c
			iw.Present[t] = c > 0
		}
	}
	return sc.wins
}

// ProcessWindows runs the service phase over a batch of windows: perturb
// indicators with the mechanism, then answer every target query on the
// released indicators. Answers are ordered by window then query name.
func (pe *PrivateEngine) ProcessWindows(ws []stream.Window) ([]Answer, error) {
	return pe.ProcessWindowsInto(nil, ws)
}

// ProcessWindowsInto is ProcessWindows appending into dst, so a streaming
// caller can reuse one answer buffer across calls: answers are valid until
// the caller reuses the buffer. Windows that carry TypeCounts (cut by the
// streaming Windower) are indexed without rescanning their events.
//
// There are two paths, chosen per epoch from the mechanism. A mechanism that
// exposes flip lists is served over dense indicator rows: no map, no sort
// and no allocation per window. Any other mechanism — the stateful
// w-event/landmark baselines need the whole window sequence, Identity has
// nothing to flip — goes through Mechanism.Run over indicator maps. Both
// consume the call's RNG in the same order, so for a PPM they release the
// same bits; the generic path is the differential oracle of the dense one.
func (pe *PrivateEngine) ProcessWindowsInto(dst []Answer, ws []stream.Window) ([]Answer, error) {
	ps := pe.snapshot()
	if len(ps.targets) == 0 {
		return nil, fmt.Errorf("core: no target queries registered")
	}
	if ps.dense {
		return pe.processDense(ps, dst, ws), nil
	}
	return pe.processGeneric(ps, dst, ws)
}

// denseStackTypes is the largest type table whose indicator row lives on the
// service call's stack; a larger table costs one allocation per call.
const denseStackTypes = 64

// processDense perturbs and answers each window as one row of bits over the
// type table. Randomness is drawn exactly as flipTable.Run draws it over the
// generic path's indicator maps — window-major, types in sorted order, each
// type's flips in registration order — so released bits are identical for
// the same seed.
func (pe *PrivateEngine) processDense(ps *planSet, dst []Answer, ws []stream.Window) []Answer {
	var buf [denseStackTypes]bool
	row := buf[:]
	if len(ps.types) > len(buf) {
		row = make([]bool, len(ps.types))
	}
	row = row[:len(ps.types)]
	dst = slices.Grow(dst, len(ws)*len(ps.targets))
	rng := pe.callRNG()
	for i := range ws {
		w := &ws[i]
		ps.fillRow(row, w)
		for pos, probs := range ps.flips {
			for _, p := range probs {
				if rng.r.Float64() < p {
					row[pos] = !row[pos]
				}
			}
		}
		for j, b := range ps.bound {
			dst = append(dst, Answer{
				Query:       ps.targets[j].Name,
				WindowIndex: i,
				Window:      *w,
				Detected:    b.Eval(row),
			})
		}
	}
	putRNG(rng)
	return dst
}

// processGeneric presents the whole window sequence to Mechanism.Run as
// indicator maps and answers from the released maps.
func (pe *PrivateEngine) processGeneric(ps *planSet, dst []Answer, ws []stream.Window) ([]Answer, error) {
	scratch := indicatorPool.Get().(*indicatorScratch)
	defer indicatorPool.Put(scratch)
	rng := pe.callRNG()
	released := pe.mechanism.Run(rng.r, scratch.fill(ws, ps.types))
	putRNG(rng)
	if len(released) != len(ws) {
		return nil, fmt.Errorf("core: mechanism %q returned %d windows for %d inputs",
			pe.mechanism.Name(), len(released), len(ws))
	}
	dst = slices.Grow(dst, len(ws)*len(ps.targets))
	for i, w := range ws {
		for j, p := range ps.plans {
			dst = append(dst, Answer{
				Query:       ps.targets[j].Name,
				WindowIndex: i,
				Window:      w,
				Detected:    p.EvalIndicators(released[i]),
			})
		}
	}
	return dst, nil
}

// ProcessEvents cuts a time-ordered event slice into tumbling windows of the
// given width and runs ProcessWindows.
func (pe *PrivateEngine) ProcessEvents(evs []event.Event, width event.Timestamp) ([]Answer, error) {
	return pe.ProcessWindows(stream.WindowSlice(evs, width))
}

// Serve consumes an event stream, windows it, and emits protected answers as
// windows complete. It terminates when the input closes or done is closed.
// Note: each window is processed as its own batch, so stateful mechanisms
// see windows one at a time in order.
func (pe *PrivateEngine) Serve(done <-chan struct{}, in stream.Stream[event.Event], width event.Timestamp) stream.Stream[Answer] {
	out := make(chan Answer)
	go func() {
		defer close(out)
		idx := 0
		for w := range stream.Tumbling(done, in, width) {
			answers, err := pe.ProcessWindows([]stream.Window{w})
			if err != nil {
				return
			}
			for _, a := range answers {
				a.WindowIndex = idx
				select {
				case out <- a:
				case <-done:
					return
				}
			}
			idx++
		}
	}()
	return out
}
