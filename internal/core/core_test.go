package core

import (
	"math"
	"math/rand"
	"testing"

	"patterndp/internal/cep"
	"patterndp/internal/dp"
	"patterndp/internal/event"
)

func mustPT(t *testing.T, name string, elems ...event.Type) PatternType {
	t.Helper()
	pt, err := NewPatternType(name, elems...)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func TestNewPatternTypeValidation(t *testing.T) {
	if _, err := NewPatternType(""); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewPatternType("p"); err == nil {
		t.Error("no elements accepted")
	}
	if _, err := NewPatternType("p", "a", ""); err == nil {
		t.Error("empty element accepted")
	}
	elems := []event.Type{"a", "b"}
	pt, err := NewPatternType("p", elems...)
	if err != nil {
		t.Fatal(err)
	}
	elems[0] = "z"
	if pt.Elements[0] != "a" {
		t.Error("NewPatternType aliased input")
	}
	if pt.Len() != 2 {
		t.Error("Len broken")
	}
	set := pt.ElementSet()
	if !set["a"] || !set["b"] || len(set) != 2 {
		t.Errorf("ElementSet = %v", set)
	}
	if pt.Expr().String() != "SEQ(a, b)" {
		t.Errorf("Expr = %v", pt.Expr())
	}
}

func TestPatternTypeMatches(t *testing.T) {
	pt := mustPT(t, "p", "a", "b")
	good := event.NewPattern("x", event.New("a", 1), event.New("b", 2))
	if !pt.Matches(good) {
		t.Error("matching instance rejected")
	}
	wrongOrder := event.NewPattern("x", event.New("b", 1), event.New("a", 2))
	if pt.Matches(wrongOrder) {
		t.Error("wrong element order accepted")
	}
	short := event.NewPattern("x", event.New("a", 1))
	if pt.Matches(short) {
		t.Error("wrong length accepted")
	}
}

func TestPatternLevelNeighbors(t *testing.T) {
	pt := mustPT(t, "p", "a", "b")
	mk := func(t1, t2 event.Type, ts event.Timestamp) event.Pattern {
		return event.NewPattern("x", event.New(t1, ts), event.New(t2, ts+1))
	}
	sa := []event.Pattern{mk("a", "b", 0), mk("c", "d", 10)}
	// Neighbor: first pattern (a member of pt) differs in one element.
	sb := []event.Pattern{
		event.NewPattern("x", event.New("a", 0), event.New("z", 1)),
		mk("c", "d", 10),
	}
	if !PatternLevelNeighbors(pt, sa, sb) {
		t.Error("valid neighbors rejected")
	}
	// Identical streams are neighbors (zero differences allowed).
	if !PatternLevelNeighbors(pt, sa, sa) {
		t.Error("identical streams rejected")
	}
	// Differing at a non-member position is not allowed.
	sc := []event.Pattern{mk("a", "b", 0), mk("c", "z", 10)}
	if PatternLevelNeighbors(pt, sa, sc) {
		t.Error("non-member difference accepted")
	}
	// Two element changes in one member pattern are not allowed.
	sd := []event.Pattern{
		event.NewPattern("x", event.New("y", 0), event.New("z", 1)),
		mk("c", "d", 10),
	}
	if PatternLevelNeighbors(pt, sa, sd) {
		t.Error("double-difference accepted")
	}
	if PatternLevelNeighbors(pt, sa, sa[:1]) {
		t.Error("length mismatch accepted")
	}
}

func TestIdentityMechanism(t *testing.T) {
	id := Identity{}
	if id.Name() != "identity" || id.TotalEpsilon() != 0 {
		t.Error("identity metadata broken")
	}
	wins := []IndicatorWindow{{
		Index:   0,
		Present: map[event.Type]bool{"a": true, "b": false},
	}}
	out := id.Run(nil, wins)
	if !out[0]["a"] || out[0]["b"] {
		t.Error("identity perturbed indicators")
	}
	out[0]["a"] = false
	if !wins[0].Present["a"] {
		t.Error("identity aliased input map")
	}
}

func TestUniformPPMConstruction(t *testing.T) {
	pt := mustPT(t, "p", "a", "b")
	if _, err := NewUniformPPM(-1, pt); err == nil {
		t.Error("invalid budget accepted")
	}
	if _, err := NewUniformPPM(1); err == nil {
		t.Error("no private patterns accepted")
	}
	u, err := NewUniformPPM(2.0, pt)
	if err != nil {
		t.Fatal(err)
	}
	if u.Name() != "uniform" || u.TotalEpsilon() != 2.0 {
		t.Error("metadata broken")
	}
	if len(u.private) != 1 {
		t.Error("Private broken")
	}
	// ε_i = 1 per element ⇒ p_i = 1/(1+e) ≈ 0.2689.
	want := 1 / (1 + math.E)
	if got := u.FlipProb("a"); math.Abs(got-want) > 1e-12 {
		t.Errorf("FlipProb(a) = %v, want %v", got, want)
	}
	if got := u.FlipProb("zzz"); got != 0 {
		t.Errorf("non-element FlipProb = %v, want 0", got)
	}
}

func TestUniformPPMTheorem1Accounting(t *testing.T) {
	// The composed per-element budgets must equal the configured ε.
	pt := mustPT(t, "p", "a", "b", "c")
	u, _ := NewUniformPPM(1.5, pt)
	probs := []float64{u.FlipProb("a"), u.FlipProb("b"), u.FlipProb("c")}
	got := dp.ComposedEpsilon(probs)
	if math.Abs(float64(got)-1.5) > 1e-9 {
		t.Errorf("composed epsilon = %v, want 1.5", got)
	}
}

func TestUniformPPMOverlappingPatternsCompose(t *testing.T) {
	// Event "a" is in two private patterns: its indicator is flipped by two
	// independent responses; the effective flip probability is
	// p1(1−p2)+p2(1−p1).
	p1 := mustPT(t, "p1", "a", "b")
	p2 := mustPT(t, "p2", "a", "c")
	u, _ := NewUniformPPM(2.0, p1, p2)
	single := 1 / (1 + math.E) // per-pattern ε_i = 1
	want := single*(1-single) + single*(1-single)
	if got := u.FlipProb("a"); math.Abs(got-want) > 1e-12 {
		t.Errorf("composed FlipProb(a) = %v, want %v", got, want)
	}
	if got := u.FlipProb("b"); math.Abs(got-single) > 1e-12 {
		t.Errorf("FlipProb(b) = %v, want %v", got, single)
	}
}

func TestUniformPPMLeavesPublicEventsAlone(t *testing.T) {
	pt := mustPT(t, "p", "a")
	u, _ := NewUniformPPM(0.5, pt)
	rng := rand.New(rand.NewSource(1))
	wins := []IndicatorWindow{{
		Present: map[event.Type]bool{"a": true, "pub": true},
	}}
	for i := 0; i < 100; i++ {
		out := u.Run(rng, wins)
		if !out[0]["pub"] {
			t.Fatal("public event indicator perturbed")
		}
	}
}

func TestUniformPPMEmpiricalFlipRate(t *testing.T) {
	pt := mustPT(t, "p", "a")
	u, _ := NewUniformPPM(1.0, pt) // p = 1/(1+e) ≈ 0.2689
	rng := rand.New(rand.NewSource(7))
	const n = 100000
	flips := 0
	for i := 0; i < n; i++ {
		out := u.PerturbWindow(rng, map[event.Type]bool{"a": true})
		if !out["a"] {
			flips++
		}
	}
	rate := float64(flips) / n
	want := 1 / (1 + math.E)
	if math.Abs(rate-want) > 0.01 {
		t.Errorf("flip rate %v, want ~%v", rate, want)
	}
}

// TestTheorem1 empirically verifies pattern-level DP: for two neighboring
// windows (differing in one private-pattern element), the likelihood ratio of
// any released indicator combination is bounded by e^ε.
func TestTheorem1(t *testing.T) {
	pt := mustPT(t, "p", "a", "b")
	eps := dp.Epsilon(1.0)
	u, err := NewUniformPPM(eps, pt)
	if err != nil {
		t.Fatal(err)
	}
	// Neighbor inputs: "a" present vs absent ("b" fixed). This is the worst
	// case for one differing element.
	inA := map[event.Type]bool{"a": true, "b": true}
	inB := map[event.Type]bool{"a": false, "b": true}

	key := func(m map[event.Type]bool) string {
		s := ""
		for _, t := range []event.Type{"a", "b"} {
			if m[t] {
				s += "1"
			} else {
				s += "0"
			}
		}
		return s
	}
	const trials = 300000
	rng := rand.New(rand.NewSource(42))
	countsA := map[string]int{}
	countsB := map[string]int{}
	for i := 0; i < trials; i++ {
		countsA[key(u.PerturbWindow(rng, inA))]++
		countsB[key(u.PerturbWindow(rng, inB))]++
	}
	maxRatio := EmpiricalRatio(countsA, countsB, trials)
	cert := DPCertificate{Epsilon: float64(eps), MaxObservedRatio: maxRatio, Trials: trials}
	// One element differs, so the ratio must stay within the per-element
	// budget ε/2 — comfortably within the pattern-level ε. Allow MC slack.
	if !cert.Holds(0.05) {
		t.Errorf("observed ratio %v exceeds epsilon %v", maxRatio, eps)
	}
	perElement := float64(eps) / 2
	if maxRatio > perElement+0.05 {
		t.Errorf("observed ratio %v exceeds per-element budget %v", maxRatio, perElement)
	}
}

// TestTheorem1FullPattern checks the composed bound when both elements
// differ (the full pattern-level neighbor case): ratio ≤ e^ε.
func TestTheorem1FullPattern(t *testing.T) {
	pt := mustPT(t, "p", "a", "b")
	eps := dp.Epsilon(1.2)
	u, _ := NewUniformPPM(eps, pt)
	inA := map[event.Type]bool{"a": true, "b": true}
	inB := map[event.Type]bool{"a": false, "b": false}
	key := func(m map[event.Type]bool) string {
		s := ""
		for _, t := range []event.Type{"a", "b"} {
			if m[t] {
				s += "1"
			} else {
				s += "0"
			}
		}
		return s
	}
	const trials = 400000
	rng := rand.New(rand.NewSource(11))
	countsA := map[string]int{}
	countsB := map[string]int{}
	for i := 0; i < trials; i++ {
		countsA[key(u.PerturbWindow(rng, inA))]++
		countsB[key(u.PerturbWindow(rng, inB))]++
	}
	maxRatio := EmpiricalRatio(countsA, countsB, trials)
	if maxRatio > float64(eps)+0.08 {
		t.Errorf("composed ratio %v exceeds epsilon %v", maxRatio, eps)
	}
	// And it should come close to ε at the extreme response (sanity that the
	// test has power): expect at least ε/2.
	if maxRatio < float64(eps)/2 {
		t.Errorf("composed ratio %v suspiciously small; test may be vacuous", maxRatio)
	}
}

func TestDetectionProbabilityExact(t *testing.T) {
	// Expr: SEQ(a,b) over indicators = a AND b. truth: a=1, b=1.
	// flip a with 0.2, b with 0.3 ⇒ P(detect) = 0.8*0.7 = 0.56.
	expr := cep.SeqTypes("a", "b")
	truth := map[event.Type]bool{"a": true, "b": true}
	flip := map[event.Type]float64{"a": 0.2, "b": 0.3}
	got := DetectionProbability(expr, truth, flip, nil)
	if math.Abs(got-0.56) > 1e-12 {
		t.Errorf("P = %v, want 0.56", got)
	}
	// truth: a=1, b=0 ⇒ detect requires b flipped: 0.8*0.3 = 0.24.
	truth["b"] = false
	got = DetectionProbability(expr, truth, flip, nil)
	if math.Abs(got-0.24) > 1e-12 {
		t.Errorf("P = %v, want 0.24", got)
	}
}

func TestDetectionProbabilityNoPerturbation(t *testing.T) {
	expr := cep.SeqTypes("a")
	if got := DetectionProbability(expr, map[event.Type]bool{"a": true}, nil, nil); got != 1 {
		t.Errorf("P = %v, want 1", got)
	}
	if got := DetectionProbability(expr, map[event.Type]bool{"a": false}, nil, nil); got != 0 {
		t.Errorf("P = %v, want 0", got)
	}
}

func TestDetectionProbabilityNegOr(t *testing.T) {
	// OR(a, NEG(b)), truth a=0 b=1, flips a:0.25 b:0.25.
	// Detect iff released a=1 or released b=0.
	// P = P(a flips) + P(a not flips)*P(b flips) = 0.25 + 0.75*0.25 = 0.4375.
	expr := cep.OrOf(cep.E("a"), cep.NegOf(cep.E("b")))
	truth := map[event.Type]bool{"a": false, "b": true}
	flip := map[event.Type]float64{"a": 0.25, "b": 0.25}
	got := DetectionProbability(expr, truth, flip, nil)
	if math.Abs(got-0.4375) > 1e-12 {
		t.Errorf("P = %v, want 0.4375", got)
	}
}

func TestDetectionProbabilityMatchesMonteCarlo(t *testing.T) {
	expr := cep.AndOf(cep.SeqTypes("a", "b"), cep.OrOf(cep.E("c"), cep.NegOf(cep.E("a"))))
	truth := map[event.Type]bool{"a": true, "b": false, "c": true}
	flip := map[event.Type]float64{"a": 0.3, "b": 0.15, "c": 0.4}
	exact := DetectionProbability(expr, truth, flip, nil)
	rng := rand.New(rand.NewSource(5))
	const n = 200000
	hits := 0
	rel := map[event.Type]bool{}
	for i := 0; i < n; i++ {
		for k, v := range truth {
			if rng.Float64() < flip[k] {
				rel[k] = !v
			} else {
				rel[k] = v
			}
		}
		if cep.EvalIndicators(expr, rel) {
			hits++
		}
	}
	mc := float64(hits) / n
	if math.Abs(exact-mc) > 0.005 {
		t.Errorf("exact %v vs monte carlo %v", exact, mc)
	}
}

func TestExpectedConfusionEdgeCases(t *testing.T) {
	c := ExpectedConfusion{}
	if c.Precision() != 1 || c.Recall() != 1 {
		t.Error("empty expected confusion should be perfect")
	}
	c = ExpectedConfusion{FN: 2}
	if c.Precision() != 0 || c.Recall() != 0 {
		t.Error("all-FN expected confusion should be zero")
	}
	c = ExpectedConfusion{TP: 3, FP: 1, FN: 1}
	if math.Abs(c.Q(0.5)-0.75) > 1e-12 {
		t.Errorf("Q = %v", c.Q(0.5))
	}
}

func TestExpectedQualityPerfectWithoutNoise(t *testing.T) {
	wins := []IndicatorWindow{
		{Present: map[event.Type]bool{"a": true, "b": true}},
		{Present: map[event.Type]bool{"a": false, "b": true}},
	}
	targets := []cep.Expr{cep.SeqTypes("a", "b")}
	q := ExpectedQuality(wins, targets, nil, 0.5, nil)
	if q != 1 {
		t.Errorf("noise-free expected quality = %v, want 1", q)
	}
}

func TestExpectedQualityDegradesWithNoise(t *testing.T) {
	wins := []IndicatorWindow{
		{Present: map[event.Type]bool{"a": true}},
		{Present: map[event.Type]bool{"a": false}},
		{Present: map[event.Type]bool{"a": true}},
		{Present: map[event.Type]bool{"a": false}},
	}
	targets := []cep.Expr{cep.SeqTypes("a")}
	qLow := ExpectedQuality(wins, targets, map[event.Type]float64{"a": 0.4}, 0.5, nil)
	qHigh := ExpectedQuality(wins, targets, map[event.Type]float64{"a": 0.1}, 0.5, nil)
	if qLow >= qHigh {
		t.Errorf("more noise should hurt: q(0.4)=%v >= q(0.1)=%v", qLow, qHigh)
	}
	if qHigh >= 1 {
		t.Errorf("noisy quality should be < 1, got %v", qHigh)
	}
}

func TestMeasuredQuality(t *testing.T) {
	wins := []IndicatorWindow{
		{Present: map[event.Type]bool{"a": true}},
		{Present: map[event.Type]bool{"a": false}},
	}
	released := []map[event.Type]bool{
		{"a": true}, // TP
		{"a": true}, // FP
	}
	q, c := MeasuredQuality(wins, released, []cep.Expr{cep.E("a")}, 0.5)
	if c.TP != 1 || c.FP != 1 || c.FN != 0 || c.TN != 0 {
		t.Errorf("confusion = %v", c)
	}
	if math.Abs(q-0.75) > 1e-12 { // Prec 0.5, Rec 1
		t.Errorf("Q = %v", q)
	}
}
