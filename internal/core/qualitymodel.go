package core

import (
	"fmt"
	"math/rand"
	"slices"

	"patterndp/internal/cep"
	"patterndp/internal/event"
)

// qualityModel is the scoring oracle of Algorithm 1 compiled from (history,
// targets): everything about ExpectedQuality that does not depend on the flip
// probabilities being scored. Whether a flip mask makes a target fire depends
// only on the window's truth bits over the target's own types, so the history
// collapses, per target, to its distinct truth classes and how many windows
// fall in each, and the expression is evaluated once per (class, mask).
//
// Scoring a flip vector is refresh (per class, the product-and-sum over flip
// masks, weighted by the class's window count into the target's expected
// confusion) followed by confusion (one add per target). A target scored
// exactly therefore costs O(classes × masks) whatever the history length;
// only a sampled target still walks the windows. The sums are grouped by
// class, not by window, so a score may differ from evaluating every window on
// its own in the last bits. A model is not safe for concurrent use: refresh
// and the sampled fallback write its caches.
type qualityModel struct {
	// wins is the history, retained for the sampled fallback, which draws
	// per key of each window's own presence map.
	wins []IndicatorWindow
	// types is the sorted table a flip vector is indexed by: every type a
	// target references or a scored flip vector may perturb. A window type
	// outside it is never flipped, so the sampled fallback draws nothing
	// for it.
	types   []event.Type
	pos     map[event.Type]int
	targets []targetModel

	// The sampled fallback's working set, built at its first use: each
	// window's keys sorted once, the map form of the flip vector being
	// scored and the released indicators of one sample, both rewritten in
	// place.
	keys     [][]event.Type
	flip     map[event.Type]float64
	released map[event.Type]bool
}

// targetModel is one target expression over the history's truth classes.
type targetModel struct {
	expr cep.Expr
	// pos are the expression's distinct types as positions in
	// qualityModel.types, ascending — the order flip masks are numbered in.
	pos []int
	// truth holds each class's bits over pos, len(pos) per class; verdict
	// is the expression's ground-truth answer on the class and count the
	// number of history windows in it.
	truth   []bool
	verdict []bool
	count   []float64
	// window is each history window's class, kept only for a target over
	// more than maxExactTypes types: the one kind the sampled fallback may
	// walk window by window.
	window []int32

	// subset lists the indices into pos of the types perturbed at the last
	// refresh, and outcomes the masks over subset under which each class's
	// released bits satisfy expr (words uint64s per class). They are
	// recompiled only when the perturbed subset changes, which a fit at a
	// finite budget never does. scratch is where a refresh lists the
	// subset it finds, to compare.
	subset   []int
	scratch  []int
	words    int // 0 until first compiled
	outcomes []uint64
	weights  []float64
	// perturbed is the number of perturbed types at the last refresh and
	// conf the target's expected confusion over the history under it. Past
	// maxExactTypes perturbed types conf is unused: the target is sampled
	// window by window.
	perturbed int
	conf      ExpectedConfusion
}

// newQualityModel compiles the history and targets; perturbed lists every
// type a flip vector scored on the model may give a non-zero flip
// probability. The windows are retained, not copied: the model is valid while
// the caller leaves them unchanged.
func newQualityModel(wins []IndicatorWindow, targets []cep.Expr, perturbed []event.Type) *qualityModel {
	m := &qualityModel{wins: wins, pos: make(map[event.Type]int)}
	typesOf := make([][]event.Type, len(targets))
	for j, target := range targets {
		typesOf[j] = target.Types()
		for _, t := range typesOf[j] {
			m.pos[t] = 0
		}
	}
	for _, t := range perturbed {
		m.pos[t] = 0
	}
	m.types = make([]event.Type, 0, len(m.pos))
	for t := range m.pos {
		m.types = append(m.types, t)
	}
	slices.Sort(m.types)
	for i, t := range m.types {
		m.pos[t] = i
	}

	// One bit row per window over the types some target references: each
	// presence is read once, however many targets share the type. bit[p] is
	// 1 + the row bit of model type p, 0 while no target references it.
	bit := make([]int, len(m.types))
	var refs []event.Type
	for _, types := range typesOf {
		for _, t := range types {
			if p := m.pos[t]; bit[p] == 0 {
				refs = append(refs, t)
				bit[p] = len(refs)
			}
		}
	}
	words := (len(refs) + 63) / 64
	rows := make([]uint64, len(wins)*words)
	for w, win := range wins {
		row := rows[w*words:]
		for b, t := range refs {
			if win.Present[t] {
				row[b>>6] |= 1 << (b & 63)
			}
		}
	}

	m.targets = make([]targetModel, len(targets))
	for j, target := range targets {
		tm := &m.targets[j]
		tm.expr = target
		for _, t := range typesOf[j] {
			tm.pos = append(tm.pos, m.pos[t])
		}
		slices.Sort(tm.pos)
		bits := make([]int, len(tm.pos))
		for i, p := range tm.pos {
			bits[i] = bit[p] - 1
		}
		if len(tm.pos) > maxExactTypes {
			tm.window = make([]int32, len(wins))
		}
		tm.classify(rows, words, len(wins), bits, m.types)
		tm.subset = make([]int, 0, len(tm.pos))
		tm.scratch = make([]int, 0, len(tm.pos))
	}
	return m
}

// classify numbers the target's truth classes in order of first appearance
// and counts the windows in each. A class is keyed by the window's bits over
// the target's types (bits are their positions in a window's row of words
// uint64s), packed eight to a byte.
func (tm *targetModel) classify(rows []uint64, words, nWins int, bits []int, types []event.Type) {
	set := func(row []uint64, b int) bool { return row[b>>6]&(1<<(b&63)) != 0 }
	classOf := make(map[string]int32)
	key := make([]byte, (len(bits)+7)/8)
	present := make(map[event.Type]bool, len(bits))
	for w := range nWins {
		row := rows[w*words:]
		clear(key)
		for i, b := range bits {
			if set(row, b) {
				key[i>>3] |= 1 << (i & 7)
			}
		}
		c, ok := classOf[string(key)]
		if !ok {
			c = int32(len(tm.count))
			classOf[string(key)] = c
			for i, b := range bits {
				present[types[tm.pos[i]]] = set(row, b)
				tm.truth = append(tm.truth, set(row, b))
			}
			tm.verdict = append(tm.verdict, cep.EvalIndicators(tm.expr, present))
			tm.count = append(tm.count, 0)
		}
		tm.count[c]++
		if tm.window != nil {
			tm.window[w] = c
		}
	}
}

// flipVector lays a per-type flip map out over the model's type table.
func (m *qualityModel) flipVector(flip map[event.Type]float64) []float64 {
	p := make([]float64, len(m.types))
	for i, t := range m.types {
		p[i] = flip[t]
	}
	return p
}

// refresh recomputes the expected confusion of the listed targets under flip
// vector p (indexed like m.types); every other target keeps the confusion of
// its last refresh. It draws no randomness.
func (m *qualityModel) refresh(p []float64, targets []int) {
	for _, j := range targets {
		m.targets[j].refresh(m.types, p)
	}
}

// refreshAll is refresh over every target.
func (m *qualityModel) refreshAll(p []float64) {
	for j := range m.targets {
		m.targets[j].refresh(m.types, p)
	}
}

func (tm *targetModel) refresh(types []event.Type, p []float64) {
	// The perturbed types the expression references, in sorted order.
	sub := tm.scratch[:0]
	for i, pos := range tm.pos {
		if p[pos] > 0 {
			sub = append(sub, i)
		}
	}
	tm.scratch = sub
	tm.perturbed = len(sub)
	if tm.sampled() {
		return
	}
	if tm.words == 0 || !slices.Equal(sub, tm.subset) {
		tm.subset, tm.scratch = sub, tm.subset
		tm.compile(types)
	}
	// One weight per flip mask: the same factors in the same order for
	// every class, so they are computed once per refresh.
	for mask := range tm.weights {
		w := 1.0
		for i, s := range tm.subset {
			q := p[tm.pos[s]]
			if mask&(1<<i) != 0 {
				w *= q
			} else {
				w *= 1 - q
			}
		}
		tm.weights[mask] = w
	}
	tm.conf = ExpectedConfusion{}
	for c, n := range tm.count {
		out := tm.outcomes[c*tm.words : (c+1)*tm.words]
		detect := 0.0
		for mask, w := range tm.weights {
			if out[mask>>6]&(1<<(mask&63)) != 0 {
				detect += w
			}
		}
		tm.conf.add(tm.verdict[c], n, detect)
	}
}

// sampled reports whether the last refresh found more perturbed types than
// the exact enumeration covers.
func (tm *targetModel) sampled() bool { return tm.perturbed > maxExactTypes }

// compile evaluates the expression once per (class, flip mask over subset).
func (tm *targetModel) compile(types []event.Type) {
	masks := 1 << len(tm.subset)
	classes := len(tm.count)
	tm.words = (masks + 63) / 64
	tm.weights = slices.Grow(tm.weights[:0], masks)[:masks]
	tm.outcomes = slices.Grow(tm.outcomes[:0], classes*tm.words)[:classes*tm.words]
	clear(tm.outcomes)
	n := len(tm.pos)
	released := make(map[event.Type]bool, n)
	for c := range classes {
		truth := tm.truth[c*n : (c+1)*n]
		for i, pos := range tm.pos {
			released[types[pos]] = truth[i]
		}
		out := tm.outcomes[c*tm.words : (c+1)*tm.words]
		for mask := 0; mask < masks; mask++ {
			for i, s := range tm.subset {
				released[types[tm.pos[s]]] = truth[s] != (mask&(1<<i) != 0)
			}
			if cep.EvalIndicators(tm.expr, released) {
				out[mask>>6] |= 1 << (mask & 63)
			}
		}
	}
}

// confusion sums the expected confusion of every target under the flips p of
// the last refresh. Sampled targets are then walked window-major,
// target-minor, each drawing from rng at its place in that order — exactly
// where evaluating each window on its own would.
func (m *qualityModel) confusion(p []float64, rng *rand.Rand) ExpectedConfusion {
	var c ExpectedConfusion
	sampled := false
	for j := range m.targets {
		tm := &m.targets[j]
		if tm.sampled() {
			sampled = true
			continue
		}
		c.TP += tm.conf.TP
		c.FP += tm.conf.FP
		c.FN += tm.conf.FN
		c.TN += tm.conf.TN
	}
	if sampled {
		m.addSampled(&c, p, rng)
	}
	return c
}

// addSampled adds the sampled targets' per-window detection estimates to c.
// A nil rng is a caller bug: a hidden default seed would make two calls
// disagree, so it panics instead.
func (m *qualityModel) addSampled(c *ExpectedConfusion, p []float64, rng *rand.Rand) {
	if rng == nil {
		for j := range m.targets {
			if tm := &m.targets[j]; tm.sampled() {
				panic(fmt.Sprintf("core: %s references %d perturbed types, more than maxExactTypes = %d: its detection probability is sampled and needs a non-nil rng",
					tm.expr, tm.perturbed, maxExactTypes))
			}
		}
	}
	if m.keys == nil {
		m.keys = make([][]event.Type, len(m.wins))
		for w, win := range m.wins {
			m.keys[w] = SortedTypes(win.Present)
		}
		m.flip = make(map[event.Type]float64, len(m.types))
		m.released = make(map[event.Type]bool)
	}
	for i, t := range m.types {
		m.flip[t] = p[i]
	}
	for w := range m.wins {
		for j := range m.targets {
			if tm := &m.targets[j]; tm.sampled() {
				c.add(tm.verdict[tm.window[w]], 1, m.sampledDetectionProbability(tm.expr, w, rng))
			}
		}
	}
}

// sampledDetectionProbability estimates P(expr fires) on history window w
// under the flip map of the current score, drawing per sample one rng value
// for each perturbed key of the window, keys in sorted order.
func (m *qualityModel) sampledDetectionProbability(expr cep.Expr, w int, rng *rand.Rand) float64 {
	const samples = 4096
	truth := m.wins[w].Present
	// The released map holds exactly this window's keys: a type it lacks
	// reads absent, as it does in the window.
	clear(m.released)
	hits := 0
	for s := 0; s < samples; s++ {
		for _, k := range m.keys[w] {
			if p := m.flip[k]; p > 0 && rng.Float64() < p {
				m.released[k] = !truth[k]
			} else {
				m.released[k] = truth[k]
			}
		}
		if cep.EvalIndicators(expr, m.released) {
			hits++
		}
	}
	return float64(hits) / samples
}
