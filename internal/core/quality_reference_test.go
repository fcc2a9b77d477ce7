package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"patterndp/internal/cep"
	"patterndp/internal/dp"
	"patterndp/internal/event"
)

// The scoring oracle as it was before the compiled quality model: every
// window evaluated on its own, over a copy of its indicator map, for every
// flip mask. It is the differential oracle the model (and the fit built on
// it) must match to the last bit, including how much of a shared rng the
// sampled fallback consumes.

func referenceExpectedQuality(wins []IndicatorWindow, targets []cep.Expr, flip map[event.Type]float64, alpha float64, rng *rand.Rand) float64 {
	var c ExpectedConfusion
	for _, w := range wins {
		for _, target := range targets {
			truth := cep.EvalIndicators(target, w.Present)
			pDetect := referenceDetectionProbability(target, w.Present, flip, rng)
			if truth {
				c.TP += pDetect
				c.FN += 1 - pDetect
			} else {
				c.FP += pDetect
				c.TN += 1 - pDetect
			}
		}
	}
	return c.Q(alpha)
}

func referenceDetectionProbability(expr cep.Expr, truth map[event.Type]bool, flip map[event.Type]float64, rng *rand.Rand) float64 {
	var perturbed []event.Type
	for _, t := range expr.Types() {
		if p := flip[t]; p > 0 {
			perturbed = append(perturbed, t)
		}
	}
	sort.Slice(perturbed, func(i, j int) bool { return perturbed[i] < perturbed[j] })

	if len(perturbed) == 0 {
		if cep.EvalIndicators(expr, truth) {
			return 1
		}
		return 0
	}
	if len(perturbed) > maxExactTypes {
		return sampledDetectionProbability(expr, truth, flip, rng)
	}
	released := make(map[event.Type]bool, len(truth))
	for k, v := range truth {
		released[k] = v
	}
	total := 0.0
	for mask := 0; mask < 1<<len(perturbed); mask++ {
		w := 1.0
		for i, t := range perturbed {
			p := flip[t]
			if mask&(1<<i) != 0 {
				w *= p
				released[t] = !truth[t]
			} else {
				w *= 1 - p
				released[t] = truth[t]
			}
		}
		if w == 0 {
			continue
		}
		if cep.EvalIndicators(expr, released) {
			total += w
		}
	}
	return total
}

// referenceFit is Algorithm 1 as NewAdaptivePPM ran it on the reference
// oracle: the flip table rebuilt and a fresh flip map scored per probe.
func referenceFit(cfg AdaptiveConfig, history []IndicatorWindow, targets []cep.Expr, private []PatternType) (dists []*dp.Distribution, fitQ float64, iters int) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, pt := range private {
		d, err := dp.UniformDistribution(cfg.Epsilon, pt.Len())
		if err != nil {
			panic(err)
		}
		dists = append(dists, d)
	}
	score := func() float64 {
		ft := newFlipTable(private, dists)
		return referenceExpectedQuality(history, targets, ft.FlipProbs(), cfg.Alpha, rng)
	}
	fitQ = score()
	for k, pt := range private {
		m := pt.Len()
		step := dp.Epsilon(cfg.StepFactor * float64(m) * float64(cfg.Epsilon))
		if m < 2 || step <= 0 {
			continue
		}
		for n := 0; n < cfg.MaxIters; n++ {
			committed := dists[k]
			bestQ := fitQ
			var best *dp.Distribution
			for i := 0; i < m; i++ {
				cand := committed.Clone()
				if cand.Shift(i, step) == 0 {
					continue
				}
				dists[k] = cand
				if q := score(); q > bestQ+1e-12 {
					bestQ, best = q, cand
				}
			}
			dists[k] = committed
			if best == nil {
				break
			}
			dists[k], fitQ = best, bestQ
			iters++
		}
	}
	return dists, fitQ, iters
}

// randomExpr draws an expression over types; depth bounds the nesting.
func randomExpr(rng *rand.Rand, types []event.Type, depth int) cep.Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		return cep.E(types[rng.Intn(len(types))])
	}
	parts := make([]cep.Expr, 1+rng.Intn(3))
	for i := range parts {
		parts[i] = randomExpr(rng, types, depth-1)
	}
	switch rng.Intn(5) {
	case 0:
		return cep.SeqOf(parts...)
	case 1:
		return cep.AndOf(parts...)
	case 2:
		return cep.OrOf(parts...)
	case 3:
		return cep.NegOf(parts[0])
	default:
		return cep.TimesOf(parts[0], 1+rng.Intn(2), 0)
	}
}

// randomOracleCase draws one (history, targets, flips) input. Windows carry
// differing key sets, expressions repeat types, some types are claimed by no
// flip and some flips by no type, and flip values include exact 0 and 0.5.
// Every sixteenth seed adds a 13-type target over a short history: fully
// perturbed it takes the sampled fallback, and with one of its flips zeroed
// it is the largest exact enumeration.
func randomOracleCase(seed int64) ([]IndicatorWindow, []cep.Expr, []map[event.Type]float64) {
	rng := rand.New(rand.NewSource(seed))
	universe := make([]event.Type, 4+rng.Intn(10))
	for i := range universe {
		universe[i] = event.Type(fmt.Sprintf("t%02d", i))
	}
	wide := seed%16 == 0
	if wide {
		universe = universe[:0]
		for i := 0; i < 15; i++ {
			universe = append(universe, event.Type(fmt.Sprintf("t%02d", i)))
		}
	}
	nWins := 1 + rng.Intn(40)
	if wide {
		nWins = 1 + rng.Intn(3)
	}
	wins := make([]IndicatorWindow, nWins)
	for w := range wins {
		present := make(map[event.Type]bool)
		for _, t := range universe {
			if rng.Intn(8) > 0 { // a missing key reads as false
				present[t] = rng.Intn(2) == 0
			}
		}
		wins[w] = IndicatorWindow{Index: w, Present: present}
	}
	targets := make([]cep.Expr, 1+rng.Intn(5))
	for j := range targets {
		targets[j] = randomExpr(rng, universe, 3)
	}
	if wide {
		targets = append(targets[:1], cep.SeqTypes(universe[:13]...), cep.NegOf(cep.E(universe[14])))
	}
	values := []float64{0, 0.5, 1e-300}
	flips := make([]map[event.Type]float64, 3)
	for f := range flips {
		flip := map[event.Type]float64{"claimed-by-no-target": 0.25}
		for _, t := range universe {
			switch r := rng.Intn(6); {
			case r < len(values):
				flip[t] = values[r]
			case r < 5:
				flip[t] = rng.Float64() / 2
			}
		}
		if wide {
			for _, t := range universe[:13] {
				flip[t] = 0.05 + rng.Float64()/4
			}
			if f == 1 {
				flip[universe[rng.Intn(13)]] = 0
			}
		}
		flips[f] = flip
	}
	return wins, targets, flips
}

// TestQualityModelMatchesReference is the model's differential test: over
// random histories, expressions and flip vectors, ExpectedQuality and
// DetectionProbability return the reference loop's float64 bit for bit and
// leave a shared rng in the same state.
func TestQualityModelMatchesReference(t *testing.T) {
	sampled := 0
	for seed := int64(1); seed <= 240; seed++ {
		wins, targets, flips := randomOracleCase(seed)
		for f, flip := range flips {
			alpha := float64(f) / 2
			rngModel, rngRef := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got := ExpectedQuality(wins, targets, flip, alpha, rngModel)
			want := referenceExpectedQuality(wins, targets, flip, alpha, rngRef)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d flips %d: ExpectedQuality = %x, reference %x", seed, f, got, want)
			}
			for j, target := range targets {
				got := DetectionProbability(target, wins[0].Present, flip, rngModel)
				want := referenceDetectionProbability(target, wins[0].Present, flip, rngRef)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d flips %d target %d (%s): DetectionProbability = %x, reference %x", seed, f, j, target, got, want)
				}
			}
			next := rngModel.Int63()
			if next != rngRef.Int63() {
				t.Fatalf("seed %d flips %d: rng states diverged", seed, f)
			}
			if next != rand.New(rand.NewSource(seed)).Int63() {
				sampled++ // the oracle drew: some target was sampled
			}
		}
	}
	if sampled == 0 {
		t.Error("no case reached the sampled fallback")
	}
}

// TestQualityModelPartialRefresh scores a sequence of flip vectors on one
// model, refreshing only the targets that reference a changed type — the way
// a fit probes — and checks every score against the reference loop.
func TestQualityModelPartialRefresh(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		wins, targets, flips := randomOracleCase(seed)
		m := newQualityModel(wins, targets)
		rngModel, rngRef := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		p := m.flipVector(flips[0])
		m.refreshAll(p)
		rng := rand.New(rand.NewSource(-seed))
		for step := 0; step < 6; step++ {
			// Move one type's flip; only targets referencing it are stale.
			pos := rng.Intn(len(p))
			p[pos] = []float64{0, 0.5, rng.Float64() / 2}[rng.Intn(3)]
			var stale []int
			for j := range m.targets {
				for _, q := range m.targets[j].pos {
					if q == pos {
						stale = append(stale, j)
					}
				}
			}
			m.refresh(p, stale)
			flip := make(map[event.Type]float64)
			for i, ty := range m.types {
				flip[ty] = p[i]
			}
			got := m.confusion(p, rngModel).Q(0.5)
			want := referenceExpectedQuality(wins, targets, flip, 0.5, rngRef)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d step %d: model %x, reference %x", seed, step, got, want)
			}
		}
		if rngModel.Int63() != rngRef.Int63() {
			t.Fatalf("seed %d: rng states diverged", seed)
		}
	}
}

// TestAdaptiveFitMatchesReferenceFit fits small random inputs with
// NewAdaptivePPM and with the reference fit: same committed steps, same
// fitted quality, same allocation, bit for bit — including a history whose
// 13-type target is sampled on every probe, so the fit's draws interleave
// exactly as the reference's do.
func TestAdaptiveFitMatchesReferenceFit(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		wins, targets, _ := randomOracleCase(seed)
		rng := rand.New(rand.NewSource(seed))
		types := make([]event.Type, 0, 16)
		for j := range targets {
			types = append(types, targets[j].Types()...)
		}
		types = append(types, "claimed-by-no-target")
		wide := seed%16 == 0
		private := make([]PatternType, 1+rng.Intn(3))
		if wide {
			private = make([]PatternType, 2)
		}
		for k := range private {
			elems := make([]event.Type, 1+rng.Intn(4))
			for i := range elems {
				elems[i] = types[rng.Intn(len(types))]
			}
			if wide {
				// Two 7-element patterns cover the 13-type target, so it
				// is sampled on every probe.
				elems = elems[:0]
				for i := 0; i < 7; i++ {
					elems = append(elems, event.Type(fmt.Sprintf("t%02d", (7*k+i)%13)))
				}
			}
			private[k] = mustPT(t, fmt.Sprintf("p%d", k), elems...)
		}
		cfg := AdaptiveConfig{Epsilon: dp.Epsilon(0.2 + 3*rng.Float64()), Alpha: rng.Float64(), StepFactor: 0.05, MaxIters: 6, Seed: seed}
		if wide {
			cfg.MaxIters = 1
		}
		got, err := NewAdaptivePPM(cfg, wins, targets, private...)
		if err != nil {
			t.Fatal(err)
		}
		dists, fitQ, iters := referenceFit(cfg, wins, targets, private)
		if got.Iterations() != iters || math.Float64bits(got.FittedQuality()) != math.Float64bits(fitQ) {
			t.Fatalf("seed %d: fit took %d steps to %x, reference %d steps to %x", seed, got.Iterations(), got.FittedQuality(), iters, fitQ)
		}
		for k := range private {
			for i, part := range got.Distribution(k).Parts() {
				if math.Float64bits(float64(part)) != math.Float64bits(float64(dists[k].Part(i))) {
					t.Fatalf("seed %d pattern %d element %d: ε = %x, reference %x", seed, k, i, float64(part), float64(dists[k].Part(i)))
				}
			}
		}
		want := newFlipTable(private, dists)
		for ty, p := range got.FlipProbs() {
			if math.Float64bits(p) != math.Float64bits(want.FlipProb(ty)) {
				t.Fatalf("seed %d: flip on %s = %x, reference %x", seed, ty, p, want.FlipProb(ty))
			}
		}
	}
}

// TestFitProbeZeroAllocs pins the cost model of a fit: once the model is
// built, scoring a candidate allocation allocates nothing.
func TestFitProbeZeroAllocs(t *testing.T) {
	p1, p2 := mustPT(t, "p1", "a", "b", "c"), mustPT(t, "p2", "c", "d")
	rng := rand.New(rand.NewSource(5))
	wins := make([]IndicatorWindow, 100)
	for w := range wins {
		present := make(map[event.Type]bool)
		for _, ty := range []event.Type{"a", "b", "c", "d", "e"} {
			present[ty] = rng.Intn(2) == 0
		}
		wins[w] = IndicatorWindow{Index: w, Present: present}
	}
	targets := []cep.Expr{cep.SeqTypes("a", "b", "e"), cep.OrOf(cep.E("c"), cep.NegOf(cep.E("d"))), cep.E("e")}
	private := []PatternType{p1, p2}
	dists := make([]*dp.Distribution, len(private))
	for k, pt := range private {
		dists[k], _ = dp.UniformDistribution(1, pt.Len())
	}
	f := newAdaptiveFit(AdaptiveConfig{Epsilon: 1, Alpha: 0.5}, newQualityModel(wins, targets), private, dists)
	f.model.refreshAll(f.flips)
	copy(f.probe, f.flips)
	cand := []float64{0.1, 0.3, 0.45}
	var q float64
	if allocs := testing.AllocsPerRun(100, func() { q = f.score(0, cand, nil) }); allocs != 0 {
		t.Errorf("one probe allocates %v times, want 0", allocs)
	}
	if q <= 0 || q > 1 {
		t.Errorf("probe scored %v", q)
	}
}

// TestSampledOracleNeedsRng: past maxExactTypes perturbed types the oracle
// samples, and a nil rng is reported by name instead of a nil dereference
// inside math/rand.
func TestSampledOracleNeedsRng(t *testing.T) {
	types := make([]event.Type, maxExactTypes+1)
	truth := make(map[event.Type]bool)
	flip := make(map[event.Type]float64)
	for i := range types {
		types[i] = event.Type(fmt.Sprintf("t%02d", i))
		truth[types[i]] = true
		flip[types[i]] = 0.25
	}
	expr := cep.SeqTypes(types...)
	want := fmt.Sprintf("core: %s references 13 perturbed types, more than maxExactTypes = 12", expr)
	for name, call := range map[string]func(){
		"DetectionProbability": func() { DetectionProbability(expr, truth, flip, nil) },
		"ExpectedQuality": func() {
			ExpectedQuality([]IndicatorWindow{{Present: truth}}, []cep.Expr{cep.E("t00"), expr}, flip, 0.5, nil)
		},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if len(msg) < len(want) || msg[:len(want)] != want {
					t.Errorf("%s with a nil rng: panic %q, want prefix %q", name, msg, want)
				}
			}()
			call()
		}()
	}
	// One perturbed type fewer is exact and needs no rng.
	flip[types[0]] = 0
	if p := DetectionProbability(expr, truth, flip, nil); p <= 0 || p >= 1 {
		t.Errorf("12 perturbed types: P(detect) = %v", p)
	}
}
