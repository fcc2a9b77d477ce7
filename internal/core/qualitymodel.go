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
// collapses, per target, to its distinct truth classes, and the expression is
// evaluated once per (class, mask) instead of once per (window, mask, score).
//
// Scoring a flip vector is refresh (per class, the product-and-sum over flip
// masks) followed by confusion (the per-window accumulation). Both keep
// the floating-point operation order of evaluating every window on its own,
// so the result is the same to the last bit. A model is not safe for
// concurrent use: refresh writes its caches.
type qualityModel struct {
	// wins is the history, retained for the sampled fallback, which draws
	// per key of each window's own presence map.
	wins []IndicatorWindow
	// types is the sorted table a flip vector is indexed by: every type a
	// target references or a history window carries.
	types   []event.Type
	pos     map[event.Type]int
	targets []targetModel
	// class[w*len(targets)+j] is window w's truth class under target j.
	class []int32
}

// targetModel is one target expression over the history's truth classes.
type targetModel struct {
	expr cep.Expr
	// pos are the expression's distinct types as positions in
	// qualityModel.types, ascending — the order flip masks are numbered in.
	pos []int
	// truth holds each class's bits over pos, len(pos) per class; verdict
	// is the expression's ground-truth answer on the class.
	truth   []bool
	verdict []bool

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
	// detect each class's detection probability under it. Past
	// maxExactTypes perturbed types detect is unused: the target is sampled
	// window by window.
	perturbed int
	detect    []float64
}

// newQualityModel compiles the history and targets. The windows are retained,
// not copied: the model is valid while the caller leaves them unchanged.
func newQualityModel(wins []IndicatorWindow, targets []cep.Expr) *qualityModel {
	m := &qualityModel{wins: wins, pos: make(map[event.Type]int)}
	for _, target := range targets {
		for _, t := range target.Types() {
			m.pos[t] = 0
		}
	}
	for _, w := range wins {
		for t := range w.Present {
			if _, ok := m.pos[t]; !ok {
				m.pos[t] = 0
			}
		}
	}
	m.types = make([]event.Type, 0, len(m.pos))
	for t := range m.pos {
		m.types = append(m.types, t)
	}
	slices.Sort(m.types)
	for i, t := range m.types {
		m.pos[t] = i
	}

	m.targets = make([]targetModel, len(targets))
	m.class = make([]int32, len(wins)*len(targets))
	var key []byte
	for j, target := range targets {
		tm := &m.targets[j]
		tm.expr = target
		for _, t := range target.Types() {
			tm.pos = append(tm.pos, m.pos[t])
		}
		slices.Sort(tm.pos)
		classOf := make(map[string]int32)
		present := make(map[event.Type]bool, len(tm.pos))
		for w, win := range wins {
			key = key[:0]
			for _, p := range tm.pos {
				bit := byte(0)
				if win.Present[m.types[p]] {
					bit = 1
				}
				key = append(key, bit)
			}
			c, ok := classOf[string(key)]
			if !ok {
				c = int32(len(tm.verdict))
				classOf[string(key)] = c
				for i, p := range tm.pos {
					present[m.types[p]] = key[i] == 1
					tm.truth = append(tm.truth, key[i] == 1)
				}
				tm.verdict = append(tm.verdict, cep.EvalIndicators(target, present))
			}
			m.class[w*len(targets)+j] = c
		}
		tm.detect = make([]float64, len(tm.verdict))
		tm.subset = make([]int, 0, len(tm.pos))
		tm.scratch = make([]int, 0, len(tm.pos))
	}
	return m
}

// flipVector lays a per-type flip map out over the model's type table.
func (m *qualityModel) flipVector(flip map[event.Type]float64) []float64 {
	p := make([]float64, len(m.types))
	for i, t := range m.types {
		p[i] = flip[t]
	}
	return p
}

// refresh recomputes the class detection probabilities of the listed targets
// under flip vector p (indexed like m.types); every other target keeps the
// probabilities of its last refresh. It draws no randomness.
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
	for c := range tm.detect {
		out := tm.outcomes[c*tm.words : (c+1)*tm.words]
		total := 0.0
		for mask, w := range tm.weights {
			if out[mask>>6]&(1<<(mask&63)) != 0 {
				total += w
			}
		}
		tm.detect[c] = total
	}
}

// sampled reports whether the last refresh found more perturbed types than
// the exact enumeration covers.
func (tm *targetModel) sampled() bool { return tm.perturbed > maxExactTypes }

// compile evaluates the expression once per (class, flip mask over subset).
func (tm *targetModel) compile(types []event.Type) {
	masks := 1 << len(tm.subset)
	tm.words = (masks + 63) / 64
	tm.weights = slices.Grow(tm.weights[:0], masks)[:masks]
	tm.outcomes = slices.Grow(tm.outcomes[:0], len(tm.detect)*tm.words)[:len(tm.detect)*tm.words]
	clear(tm.outcomes)
	n := len(tm.pos)
	released := make(map[event.Type]bool, n)
	for c := range tm.detect {
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

// samplingFlips returns the map form of flip vector p that the sampled
// fallback reads, or nil when the last refresh left every target exact. A nil
// rng with a sampled target is a caller bug: a hidden default seed would make
// two calls disagree, so it panics instead.
func (m *qualityModel) samplingFlips(p []float64, rng *rand.Rand) map[event.Type]float64 {
	for j := range m.targets {
		tm := &m.targets[j]
		if !tm.sampled() {
			continue
		}
		if rng == nil {
			panic(fmt.Sprintf("core: %s references %d perturbed types, more than maxExactTypes = %d: its detection probability is sampled and needs a non-nil rng",
				tm.expr, tm.perturbed, maxExactTypes))
		}
		flip := make(map[event.Type]float64, len(m.types))
		for i, t := range m.types {
			flip[t] = p[i]
		}
		return flip
	}
	return nil
}

// confusion accumulates the expected confusion of every (window, target)
// pair — window-major, target-minor — under the flips p of the last refresh.
// A sampled target draws from rng at its place in that order, exactly where
// evaluating each window on its own would.
func (m *qualityModel) confusion(p []float64, rng *rand.Rand) ExpectedConfusion {
	flip := m.samplingFlips(p, rng)
	var c ExpectedConfusion
	for w := range m.wins {
		classes := m.class[w*len(m.targets) : (w+1)*len(m.targets)]
		for j := range m.targets {
			tm := &m.targets[j]
			pDetect := tm.detect[classes[j]]
			if flip != nil && tm.sampled() {
				pDetect = sampledDetectionProbability(tm.expr, m.wins[w].Present, flip, rng)
			}
			if tm.verdict[classes[j]] {
				c.TP += pDetect
				c.FN += 1 - pDetect
			} else {
				c.FP += pDetect
				c.TN += 1 - pDetect
			}
		}
	}
	return c
}
