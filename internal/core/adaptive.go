package core

import (
	"fmt"
	"math/rand"
	"slices"

	"patterndp/internal/cep"
	"patterndp/internal/dp"
	"patterndp/internal/event"
)

// AdaptiveConfig parameterizes the adaptive PPM (Algorithm 1).
type AdaptiveConfig struct {
	// Epsilon is the total pattern-level budget per private pattern type.
	Epsilon dp.Epsilon
	// Alpha weighs precision against recall in the quality metric Q.
	Alpha float64
	// StepFactor scales the step size: δε = StepFactor · m · ε. The paper
	// suggests δε = mε/100, i.e. StepFactor = 0.01, the default when 0.
	StepFactor float64
	// MaxIters bounds the outer optimization loop (the paper's loop can
	// plateau without converging; we cap it). Defaults to 100 when 0.
	MaxIters int
	// Seed drives any sampled probability estimates during fitting,
	// keeping the fit deterministic.
	Seed int64
}

func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.StepFactor == 0 {
		c.StepFactor = 0.01
	}
	if c.MaxIters == 0 {
		c.MaxIters = 100
	}
	return c
}

func (c AdaptiveConfig) validate() error {
	if !c.Epsilon.Valid() {
		return fmt.Errorf("core: invalid budget %v", c.Epsilon)
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("core: alpha %v outside [0,1]", c.Alpha)
	}
	if c.StepFactor < 0 {
		return fmt.Errorf("core: negative step factor %v", c.StepFactor)
	}
	if c.MaxIters < 0 {
		return fmt.Errorf("core: negative max iters %d", c.MaxIters)
	}
	return nil
}

// AdaptivePPM is the adaptive pattern-level PPM of Section V-B: it keeps the
// per-pattern total budget ε fixed but reallocates it across the pattern's
// elements with the bidirectional stepwise search of Algorithm 1, scoring
// candidate allocations by the expected data quality of the target queries
// over historical data (which data subjects grant the trusted engine access
// to under the system model).
//
// Implementation notes relative to the paper's pseudocode:
//   - Line 7 moves δε onto element i and takes δε/m from each other
//     element, which does not conserve Σε_i; we take δε/(m−1) instead so
//     the total budget is conserved exactly, and clamp at zero.
//   - Candidate allocations are scored with the exact expected quality
//     (ExpectedQuality) instead of a noisy simulated run, making the fit
//     deterministic.
//   - The loop requires strict improvement (the paper's ≥ admits infinite
//     plateau cycling) and is additionally bounded by MaxIters.
//
// With several private pattern types, each type's allocation is fitted in
// turn while the other types' perturbations are held fixed (coordinate
// descent over pattern types).
type AdaptivePPM struct {
	flipTable
	cfg     AdaptiveConfig
	private []PatternType
	dists   []*dp.Distribution
	fitQ    float64
	iters   int
}

// NewAdaptivePPM fits the mechanism on historical windows. targets are the
// target-pattern expressions whose quality the fit maximizes; history holds
// the indicator windows of the historical data.
func NewAdaptivePPM(cfg AdaptiveConfig, history []IndicatorWindow, targets []cep.Expr, private ...PatternType) (*AdaptivePPM, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(private) == 0 {
		return nil, fmt.Errorf("core: adaptive PPM needs at least one private pattern type")
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("core: adaptive PPM needs at least one target expression")
	}
	if len(history) == 0 {
		return nil, fmt.Errorf("core: adaptive PPM needs historical windows")
	}
	private = slices.Clone(private)

	// Line 1: start every pattern at the uniform allocation.
	dists := make([]*dp.Distribution, len(private))
	for k, pt := range private {
		if pt.Len() == 0 {
			return nil, fmt.Errorf("core: private pattern type %q has no elements", pt.Name)
		}
		d, err := dp.UniformDistribution(cfg.Epsilon, pt.Len())
		if err != nil {
			return nil, err
		}
		dists[k] = d
	}
	// The private patterns' elements are the only types a fit flips.
	var perturbed []event.Type
	for _, pt := range private {
		perturbed = append(perturbed, pt.Elements...)
	}
	f := newAdaptiveFit(cfg, newQualityModel(history, targets, perturbed), private, dists)
	rng := rand.New(rand.NewSource(cfg.Seed))
	f.model.refreshAll(f.flips)
	a := &AdaptivePPM{cfg: cfg, private: private, dists: dists}
	a.fitQ = f.model.confusion(f.flips, rng).Q(cfg.Alpha)

	// Coordinate descent over pattern types, Algorithm 1 within each.
	for k := range private {
		q, iters := f.fitPattern(k, a.fitQ, rng)
		a.fitQ = q
		a.iters += iters
	}
	a.flipTable = newFlipTable(cfg.Epsilon, private, dists)
	return a, nil
}

// adaptiveFit is the working state of one fit: the compiled scoring model and
// the allocation being searched, laid out over the model's type table so a
// probe touches no map and leaves the mechanism under construction alone.
type adaptiveFit struct {
	cfg   AdaptiveConfig
	model *qualityModel
	// dists[k] is pattern k's committed allocation (the slice is the one
	// the AdaptivePPM being built holds) and probs[k] its per-element flip
	// probabilities.
	dists []*dp.Distribution
	probs [][]float64
	// claims[t] lists, for the model's type t, the (pattern, element) pairs
	// whose randomized responses compose on it, in registration order.
	claims [][]claim
	// flips is the effective flip probability per model type under dists;
	// probe is flips with one pattern's candidate allocation swapped in.
	flips []float64
	probe []float64
	// types[k] are the model types pattern k's elements claim, and
	// touched[k] the targets referencing one of them: the only targets a
	// probe on pattern k can move.
	types   [][]int
	touched [][]int
}

type claim struct{ pattern, element int }

func newAdaptiveFit(cfg AdaptiveConfig, model *qualityModel, private []PatternType, dists []*dp.Distribution) *adaptiveFit {
	f := &adaptiveFit{
		cfg:     cfg,
		model:   model,
		dists:   dists,
		probs:   make([][]float64, len(private)),
		claims:  make([][]claim, len(model.types)),
		flips:   make([]float64, len(model.types)),
		probe:   make([]float64, len(model.types)),
		types:   make([][]int, len(private)),
		touched: make([][]int, len(private)),
	}
	for k, pt := range private {
		f.probs[k] = dists[k].FlipProbs()
		for i, t := range pt.Elements {
			pos := model.pos[t]
			f.claims[pos] = append(f.claims[pos], claim{k, i})
			f.types[k] = append(f.types[k], pos)
		}
		for j := range model.targets {
			if slices.ContainsFunc(model.targets[j].pos, func(pos int) bool { return slices.Contains(f.types[k], pos) }) {
				f.touched[k] = append(f.touched[k], j)
			}
		}
	}
	for pos := range f.flips {
		f.flips[pos] = f.effective(pos, -1, nil)
	}
	return f
}

// effective composes the independent randomized responses on one model type
// exactly as flipTable.FlipProb does, reading pattern k's element
// probabilities from cand instead of the committed ones (k = −1: none).
func (f *adaptiveFit) effective(pos, k int, cand []float64) float64 {
	eff := 0.0
	for _, c := range f.claims[pos] {
		p := f.probs[c.pattern][c.element]
		if c.pattern == k {
			p = cand[c.element]
		}
		eff = eff*(1-p) + p*(1-eff)
	}
	return eff
}

// score is one probe of Algorithm 1: the expected quality with pattern k's
// element flip probabilities replaced by cand and everything else as
// committed. Only the targets pattern k touches are re-evaluated.
func (f *adaptiveFit) score(k int, cand []float64, rng *rand.Rand) float64 {
	for _, pos := range f.types[k] {
		f.probe[pos] = f.effective(pos, k, cand)
	}
	f.model.refresh(f.probe, f.touched[k])
	return f.model.confusion(f.probe, rng).Q(f.cfg.Alpha)
}

// tryStep builds in cand and probs a step of δε onto element i of pattern k's
// committed allocation and scores it; ok is false when the step moves no
// budget. cand must have pattern k's length and probs room for its flips.
func (f *adaptiveFit) tryStep(k, i int, step dp.Epsilon, cand *dp.Distribution, probs []float64, rng *rand.Rand) (q float64, ok bool) {
	committed := f.dists[k]
	for e := range committed.Len() {
		cand.Set(e, committed.Part(e))
	}
	if cand.Shift(i, step) == 0 {
		return 0, false
	}
	return f.score(k, cand.FlipProbsInto(probs), rng), true
}

// fitPattern runs Algorithm 1 for pattern k with all other patterns fixed,
// starting from expected quality bestQ. It returns the fitted expected
// quality and the number of committed steps.
func (f *adaptiveFit) fitPattern(k int, bestQ float64, rng *rand.Rand) (float64, int) {
	m := f.dists[k].Len()
	if m < 2 {
		// Nothing to reallocate; uniform is the only allocation.
		return bestQ, 0
	}
	// Line 2: step size δε = StepFactor · m · ε.
	step := dp.Epsilon(f.cfg.StepFactor * float64(m) * float64(f.cfg.Epsilon))
	if step <= 0 {
		return bestQ, 0
	}
	copy(f.probe, f.flips)
	// A probe is built in cand/candProbs; the best of a round is kept by
	// swapping it into best/bestProbs, and committed by swapping those with
	// the pattern's allocation, so no probe allocates.
	cand, best := f.dists[k].Clone(), f.dists[k].Clone()
	candProbs, bestProbs := make([]float64, m), make([]float64, m)
	iters := 0
	for iters < f.cfg.MaxIters {
		// Lines 6–9: probe a step onto each element.
		bestI := -1
		bestCandQ := bestQ
		for i := 0; i < m; i++ {
			if q, ok := f.tryStep(k, i, step, cand, candProbs, rng); ok && q > bestCandQ+1e-12 {
				bestI, bestCandQ = i, q
				cand, best = best, cand
				candProbs, bestProbs = bestProbs, candProbs
			}
		}
		// Lines 10–12: commit the best improving move, if any.
		if bestI < 0 {
			break
		}
		f.dists[k], best = best, f.dists[k]
		f.probs[k], bestProbs = bestProbs, f.probs[k]
		for _, pos := range f.types[k] {
			f.flips[pos] = f.effective(pos, -1, nil)
		}
		bestQ = bestCandQ
		iters++
	}
	// Leave the model's cached confusions at the committed allocation, not
	// at the last probe, for the next pattern's fit.
	f.model.refresh(f.flips, f.touched[k])
	return bestQ, iters
}

// Name implements Mechanism.
func (a *AdaptivePPM) Name() string { return "adaptive" }

// TotalEpsilon implements Mechanism: the configured ε, or the composed Σεᵢ
// of a fitted split whose steps rounded above it.
func (a *AdaptivePPM) TotalEpsilon() dp.Epsilon { return a.charge }

// Private returns the configured private pattern types.
func (a *AdaptivePPM) Private() []PatternType { return a.private }

// Distribution returns the fitted allocation for pattern k.
func (a *AdaptivePPM) Distribution(k int) *dp.Distribution { return a.dists[k].Clone() }

// FittedQuality returns the expected quality of the final allocation on the
// historical data.
func (a *AdaptivePPM) FittedQuality() float64 { return a.fitQ }

// Iterations returns the number of committed optimization steps.
func (a *AdaptivePPM) Iterations() int { return a.iters }
