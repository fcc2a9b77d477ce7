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

// ErrUnservedMechanism is returned (wrapped, with the mechanism's name) by
// NewPrivateEngine for a mechanism the engine cannot serve: anything but
// UniformPPM, AdaptivePPM and Identity. Their release is a fixed flip table
// applied to each window independently, so a window's ε is the per-window
// charge the ledger books. A w-event or landmark baseline, or CountPPM, is
// defined over a whole window sequence; compare it through Mechanism.Run.
var ErrUnservedMechanism = errors.New("core: mechanism cannot be served")

// Answer is one privacy-protected query answer delivered to a data consumer:
// the interval of the window it refers to and the released binary detection.
// It carries nothing of the window's contents: the tally the mechanism read
// is the unperturbed private input.
type Answer struct {
	// Query names the target query answered.
	Query string
	// WindowIndex is the position of the window in the stream.
	WindowIndex int
	// Start and End are the window's half-open interval [Start, End).
	Start, End event.Timestamp
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
type PrivateEngine struct {
	mu        sync.RWMutex
	mechanism Mechanism
	flips     flipLister
	private   []PatternType
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

// planSet is one immutable epoch of the engine's serving state: the target
// queries' compiled plans, sorted by query name, and the type table — the sorted union of private-pattern element types and
// target-query types that indicators must cover. Compiled once per
// registration change, shared by every in-flight service call.
//
// The planSet is the single owner of the type table. A window's indicators
// are a flat row of bits indexed by table position, flips[pos] is the flip
// list of types[pos], and bound[j] is the j-th target's plan with its
// operands resolved to positions.
type planSet struct {
	plans []*cep.Plan
	types []event.Type
	// every selects every plan: 0..len(bound)-1, what ProcessWindowsInto
	// answers.
	every []int
	pos   map[event.Type]int32
	flips [][]float64
	bound []*cep.BoundPlan
}

// buildPlanSet builds the serving state for name-sorted compiled plans.
func buildPlanSet(fl flipLister, private []PatternType, plans []*cep.Plan) *planSet {
	ps := &planSet{plans: plans, every: make([]int, len(plans))}
	for _, pt := range private {
		ps.types = append(ps.types, pt.Elements...)
	}
	for i, p := range plans {
		ps.every[i] = i
		ps.types = append(ps.types, p.Query().Pattern.Types()...)
	}
	slices.Sort(ps.types)
	ps.types = slices.Compact(ps.types)
	lists := fl.flipLists()
	ps.flips = make([][]float64, len(ps.types))
	ps.pos = make(map[event.Type]int32, len(ps.types))
	for pos, t := range ps.types {
		ps.flips[pos] = lists[t]
		ps.pos[t] = int32(pos)
	}
	ps.bound = make([]*cep.BoundPlan, len(plans))
	for j, p := range plans {
		ps.bound[j] = p.Bind(ps.types, ps.pos)
	}
	return ps
}

// fillRow writes the window's true existence indicators into row, which is
// laid out by the type table: one pass over the window's tally.
func (ps *planSet) fillRow(row []bool, w *stream.Window) {
	clear(row)
	for _, c := range w.TypeCounts {
		if c.N > 0 {
			if pos, ok := ps.pos[c.Type]; ok {
				row[pos] = true
			}
		}
	}
}

// NewPrivateEngine builds an engine around the given mechanism and the
// private pattern types it protects. seed drives the mechanism's randomness.
// A mechanism other than UniformPPM, AdaptivePPM or Identity is refused with
// ErrUnservedMechanism.
func NewPrivateEngine(m Mechanism, private []PatternType, seed int64) (*PrivateEngine, error) {
	if m == nil {
		return nil, fmt.Errorf("core: nil mechanism")
	}
	fl, ok := servedFlips(m)
	if !ok {
		return nil, fmt.Errorf("%w: %q is not a per-window flip table", ErrUnservedMechanism, m.Name())
	}
	if len(private) == 0 {
		return nil, fmt.Errorf("core: no private pattern types registered")
	}
	pe := &PrivateEngine{
		mechanism: m,
		flips:     fl,
		private:   private,
		seed:      seed,
	}
	pe.snap = buildPlanSet(fl, private, nil)
	return pe, nil
}

// servedFlips returns m's flip table when the engine can serve m. It checks
// the concrete type, not just flipLister: a type embedding one of the three
// inherits flipLists while it may override Run or TotalEpsilon.
func servedFlips(m Mechanism) (flipLister, bool) {
	switch m := m.(type) {
	case *UniformPPM:
		return m, true
	case *AdaptivePPM:
		return m, true
	case Identity:
		return m, true
	}
	return nil, false
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
	p, err := cep.Compile(q)
	if err != nil {
		return err
	}
	pe.mu.Lock()
	defer pe.mu.Unlock()
	plans := slices.DeleteFunc(slices.Clone(pe.snap.plans), func(o *cep.Plan) bool { return o.Query().Name == q.Name })
	pe.publish(append(plans, p))
	return nil
}

// publish sorts plans by query name and makes them the serving snapshot;
// callers hold pe.mu and hand plans over.
func (pe *PrivateEngine) publish(plans []*cep.Plan) {
	sort.Slice(plans, func(i, j int) bool { return plans[i].Query().Name < plans[j].Query().Name })
	pe.snap = buildPlanSet(pe.flips, pe.private, plans)
}

// snapshot returns the current serving snapshot. The returned set and its
// slices are shared and must not be modified.
func (pe *PrivateEngine) snapshot() *planSet {
	pe.mu.RLock()
	defer pe.mu.RUnlock()
	return pe.snap
}

// SetTargetPlans replaces the whole registered target set in one step with
// already-compiled plans, name-sorted — the streaming runtime's control plane
// compiles each query once per epoch and hands every shard's engine the same
// shared plan set, so applying an epoch costs one sort and no compilation.
func (pe *PrivateEngine) SetTargetPlans(plans []*cep.Plan) error {
	for i := range plans {
		if plans[i] == nil {
			return fmt.Errorf("core: nil plan at index %d", i)
		}
	}
	pe.mu.Lock()
	defer pe.mu.Unlock()
	pe.publish(slices.Clone(plans))
	return nil
}

// ProcessWindows runs the service phase over a batch of windows: perturb
// indicators with the mechanism, then answer every target query on the
// released indicators. Answers are ordered by window then query name.
func (pe *PrivateEngine) ProcessWindows(ws []stream.Window) ([]Answer, error) {
	return pe.ProcessWindowsInto(nil, ws)
}

// ProcessWindowsInto is ProcessWindows appending into dst, so a streaming
// caller can reuse one answer buffer across calls: answers are valid until
// the caller reuses the buffer. Each window is perturbed as a dense row of
// indicator bits: no map, no sort and no allocation per window.
func (pe *PrivateEngine) ProcessWindowsInto(dst []Answer, ws []stream.Window) ([]Answer, error) {
	ps := pe.snapshot()
	return pe.process(ps, dst, ws, ps.every)
}

// ProcessSelectedInto is ProcessWindowsInto answering only the target queries
// at the positions sel lists — indices into the registered targets sorted by
// name, ascending — per window, in sel's order. The mechanism runs exactly as
// ProcessWindowsInto runs it (same call index, same draws, whatever sel
// holds, empty included), so each selected answer is bit-identical to the
// one ProcessWindowsInto would have released and the engine's later calls
// are unaffected by the selection. A streaming caller uses it to skip
// evaluating answers nobody receives.
func (pe *PrivateEngine) ProcessSelectedInto(dst []Answer, ws []stream.Window, sel []int) ([]Answer, error) {
	ps := pe.snapshot()
	for _, j := range sel {
		if j < 0 || j >= len(ps.plans) {
			return nil, fmt.Errorf("core: selected query %d of %d registered", j, len(ps.plans))
		}
	}
	return pe.process(ps, dst, ws, sel)
}

// denseStackTypes is the largest type table whose indicator row lives on the
// service call's stack; a larger table costs one allocation per call.
const denseStackTypes = 64

// process is the one service loop behind ProcessWindowsInto and
// ProcessSelectedInto: perturb every window as one row of bits over the type
// table, then answer the plans sel names. Randomness is drawn exactly as
// Mechanism.Run draws it over indicator maps of the same types — window-major,
// types in sorted order, each type's flips in registration order — so
// released bits are identical for the same seed.
func (pe *PrivateEngine) process(ps *planSet, dst []Answer, ws []stream.Window, sel []int) ([]Answer, error) {
	if len(ps.plans) == 0 {
		return nil, fmt.Errorf("core: no target queries registered")
	}
	var buf [denseStackTypes]bool
	row := buf[:]
	if len(ps.types) > len(buf) {
		row = make([]bool, len(ps.types))
	}
	row = row[:len(ps.types)]
	dst = slices.Grow(dst, len(ws)*len(sel))
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
		for _, j := range sel {
			dst = append(dst, Answer{
				Query:       ps.plans[j].Query().Name,
				WindowIndex: i,
				Start:       w.Start,
				End:         w.End,
				Detected:    ps.bound[j].Eval(row),
			})
		}
	}
	putRNG(rng)
	return dst, nil
}

// ProcessEvents cuts a time-ordered event slice into tumbling windows of the
// given width and runs ProcessWindows.
func (pe *PrivateEngine) ProcessEvents(evs []event.Event, width event.Timestamp) ([]Answer, error) {
	return pe.ProcessWindows(stream.WindowSlice(evs, width))
}
