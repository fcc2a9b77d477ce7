package core

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"patterndp/internal/cep"
	"patterndp/internal/dp"
	"patterndp/internal/event"
)

// The scoring oracle as it was before the compiled quality model: every
// window evaluated on its own, over a copy of its indicator map, for every
// flip mask. It is the differential oracle the model (and the fit built on
// it) must match: the same scores up to summation order (the model adds per
// truth class, weighted by its window count, where this adds per window), the
// same fitted steps, ε and flips to the last bit, and the same consumption of
// a shared rng by the sampled fallback.

// oracleTol bounds the relative difference between a model score and the
// reference loop's: the two add the same terms in different groupings.
const oracleTol = 1e-12

// closeTo reports whether got is within rel of want, relative to the larger
// magnitude; equal values (zeros included) always are.
func closeTo(got, want, rel float64) bool {
	return got == want || math.Abs(got-want) <= rel*math.Max(math.Abs(got), math.Abs(want))
}

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
		return referenceSampledDetectionProbability(expr, truth, flip, rng)
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

func referenceSampledDetectionProbability(expr cep.Expr, truth map[event.Type]bool, flip map[event.Type]float64, rng *rand.Rand) float64 {
	const samples = 4096
	released := make(map[event.Type]bool, len(truth))
	keys := SortedTypes(truth)
	hits := 0
	for s := 0; s < samples; s++ {
		for _, k := range keys {
			if p := flip[k]; p > 0 && rng.Float64() < p {
				released[k] = !truth[k]
			} else {
				released[k] = truth[k]
			}
		}
		if cep.EvalIndicators(expr, released) {
			hits++
		}
	}
	return float64(hits) / samples
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
		ft := newFlipTable(cfg.Epsilon, private, dists)
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
// random histories, expressions and flip vectors, ExpectedQuality returns the
// reference loop's score within oracleTol, DetectionProbability (one window,
// so nothing to regroup) its float64 bit for bit, and both leave a shared rng
// in the same state.
func TestQualityModelMatchesReference(t *testing.T) {
	sampled := 0
	for seed := int64(1); seed <= 240; seed++ {
		wins, targets, flips := randomOracleCase(seed)
		for f, flip := range flips {
			alpha := float64(f) / 2
			rngModel, rngRef := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got := ExpectedQuality(wins, targets, flip, alpha, rngModel)
			want := referenceExpectedQuality(wins, targets, flip, alpha, rngRef)
			if !closeTo(got, want, oracleTol) {
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
// a fit probes — and checks every score against the reference loop, within
// oracleTol.
func TestQualityModelPartialRefresh(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		wins, targets, flips := randomOracleCase(seed)
		// Any type a window carries may be moved, not only those flips[0]
		// names.
		perturbed := slices.Collect(maps.Keys(flips[0]))
		for _, w := range wins {
			perturbed = slices.AppendSeq(perturbed, maps.Keys(w.Present))
		}
		m := newQualityModel(wins, targets, perturbed)
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
			if !closeTo(got, want, oracleTol) {
				t.Fatalf("seed %d step %d: model %x, reference %x", seed, step, got, want)
			}
		}
		if rngModel.Int63() != rngRef.Int63() {
			t.Fatalf("seed %d: rng states diverged", seed)
		}
	}
}

// randomFitCase draws one fit input on randomOracleCase's history and
// targets: 1–3 private patterns over the targets' types (and a type no
// target or window has), a random budget and α. On every sixteenth seed two
// 7-element patterns cover the 13-type target instead, so it is sampled on
// every probe.
func randomFitCase(t *testing.T, seed int64) ([]IndicatorWindow, []cep.Expr, []PatternType, AdaptiveConfig) {
	t.Helper()
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
	return wins, targets, private, cfg
}

// sameSplit fails unless two fits committed the same steps to the same
// allocation and flips, bit for bit, with fitted qualities within oracleTol.
func sameSplit(t *testing.T, label string, got *AdaptivePPM, iters int, fitQ float64, dists []*dp.Distribution) {
	t.Helper()
	if got.Iterations() != iters || !closeTo(got.FittedQuality(), fitQ, oracleTol) {
		t.Fatalf("%s: fit took %d steps to %x, want %d steps to %x", label, got.Iterations(), got.FittedQuality(), iters, fitQ)
	}
	for k := range got.Private() {
		for i, part := range got.Distribution(k).Parts() {
			if math.Float64bits(float64(part)) != math.Float64bits(float64(dists[k].Part(i))) {
				t.Fatalf("%s pattern %d element %d: ε = %x, want %x", label, k, i, float64(part), float64(dists[k].Part(i)))
			}
		}
	}
	want := newFlipTable(got.TotalEpsilon(), got.Private(), dists)
	for ty, p := range got.FlipProbs() {
		if math.Float64bits(p) != math.Float64bits(want.FlipProb(ty)) {
			t.Fatalf("%s: flip on %s = %x, want %x", label, ty, p, want.FlipProb(ty))
		}
	}
}

// TestAdaptiveFitMatchesReferenceFit fits small random inputs with
// NewAdaptivePPM and with the reference fit: same committed steps, same
// allocation and flips bit for bit, fitted quality within oracleTol —
// including a history whose 13-type target is sampled on every probe, so the
// fit's draws interleave exactly as the reference's do.
func TestAdaptiveFitMatchesReferenceFit(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		wins, targets, private, cfg := randomFitCase(t, seed)
		got, err := NewAdaptivePPM(cfg, wins, targets, private...)
		if err != nil {
			t.Fatal(err)
		}
		dists, fitQ, iters := referenceFit(cfg, wins, targets, private)
		sameSplit(t, fmt.Sprintf("seed %d", seed), got, iters, fitQ, dists)
	}
}

// TestFitDependsOnClassFrequencies: with every target scored exactly, a fit
// reads the history only through each truth class's window count, so
// repeating every window k times scales every count and moves nothing — the
// same steps, ε and flips, bit for bit.
func TestFitDependsOnClassFrequencies(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		if seed%16 == 0 {
			continue // sampled: its draws follow the windows, not the classes
		}
		wins, targets, private, cfg := randomFitCase(t, seed)
		base, err := NewAdaptivePPM(cfg, wins, targets, private...)
		if err != nil {
			t.Fatal(err)
		}
		dists := make([]*dp.Distribution, len(private))
		for k := range private {
			dists[k] = base.Distribution(k)
		}
		for _, k := range []int{2, 7} {
			var repeated []IndicatorWindow
			for _, w := range wins {
				for range k {
					repeated = append(repeated, w)
				}
			}
			got, err := NewAdaptivePPM(cfg, repeated, targets, private...)
			if err != nil {
				t.Fatal(err)
			}
			sameSplit(t, fmt.Sprintf("seed %d, every window ×%d", seed, k), got, base.Iterations(), base.FittedQuality(), dists)
		}
	}
}

// TestFitProbeZeroAllocs pins the cost model of a fit: once the model is
// built, building and scoring a candidate allocation allocates nothing —
// with every target exact, and with a 13-type target past maxExactTypes,
// which the sampled fallback walks window by window.
func TestFitProbeZeroAllocs(t *testing.T) {
	wide := make([]event.Type, maxExactTypes+1)
	for i := range wide {
		wide[i] = event.Type(fmt.Sprintf("t%02d", i))
	}
	for _, tc := range []struct {
		name    string
		types   []event.Type
		targets []cep.Expr
		private [][]event.Type
		windows int
		runs    int
	}{
		{
			name:    "exact",
			types:   []event.Type{"a", "b", "c", "d", "e"},
			targets: []cep.Expr{cep.SeqTypes("a", "b", "e"), cep.OrOf(cep.E("c"), cep.NegOf(cep.E("d"))), cep.E("e")},
			private: [][]event.Type{{"a", "b", "c"}, {"c", "d"}},
			windows: 100,
			runs:    100,
		},
		{
			name:    "13 perturbed types",
			types:   append([]event.Type{"e"}, wide...),
			targets: []cep.Expr{cep.SeqTypes(wide...), cep.E("e")},
			private: [][]event.Type{wide[:7], wide[7:]},
			windows: 2,
			runs:    5,
		},
	} {
		rng := rand.New(rand.NewSource(5))
		wins := make([]IndicatorWindow, tc.windows)
		for w := range wins {
			present := make(map[event.Type]bool)
			for _, ty := range tc.types {
				present[ty] = rng.Intn(2) == 0
			}
			wins[w] = IndicatorWindow{Index: w, Present: present}
		}
		private := make([]PatternType, len(tc.private))
		dists := make([]*dp.Distribution, len(private))
		for k, elems := range tc.private {
			private[k] = mustPT(t, fmt.Sprintf("p%d", k), elems...)
			dists[k], _ = dp.UniformDistribution(1, len(elems))
		}
		f := newAdaptiveFit(AdaptiveConfig{Epsilon: 1, Alpha: 0.5}, newQualityModel(wins, tc.targets, slices.Concat(tc.private...)), private, dists)
		f.model.refreshAll(f.flips)
		copy(f.probe, f.flips)
		cand := dists[0].Clone()
		probs := make([]float64, cand.Len())
		var (
			q  float64
			ok bool
		)
		if allocs := testing.AllocsPerRun(tc.runs, func() { q, ok = f.tryStep(0, 1, 0.05, cand, probs, rng) }); allocs != 0 {
			t.Errorf("%s: one probe allocates %v times, want 0", tc.name, allocs)
		}
		if !ok || q <= 0 || q > 1 {
			t.Errorf("%s: probe scored %v (moved budget: %v)", tc.name, q, ok)
		}
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
