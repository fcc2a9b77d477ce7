package core

import (
	"math"
	"math/rand"
	"testing"

	"patterndp/internal/cep"
	"patterndp/internal/dp"
	"patterndp/internal/event"
)

// histWindows builds a history where event "a" is pivotal for the target
// and "b" is noise-tolerant, so the adaptive fit should shift budget to "a".
func histWindows() []IndicatorWindow {
	var wins []IndicatorWindow
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		a := rng.Float64() < 0.5
		b := rng.Float64() < 0.9 // b almost always present: low information
		wins = append(wins, IndicatorWindow{
			Index:   i,
			Present: map[event.Type]bool{"a": a, "b": b},
		})
	}
	return wins
}

func TestAdaptiveConfigDefaultsAndValidation(t *testing.T) {
	c := AdaptiveConfig{}.withDefaults()
	if c.StepFactor != 0.01 || c.MaxIters != 100 {
		t.Errorf("defaults = %+v", c)
	}
	bad := []AdaptiveConfig{
		{Epsilon: -1, Alpha: 0.5},
		{Epsilon: 1, Alpha: -0.1},
		{Epsilon: 1, Alpha: 1.5},
		{Epsilon: 1, Alpha: 0.5, StepFactor: -1},
		{Epsilon: 1, Alpha: 0.5, MaxIters: -2},
	}
	for i, c := range bad {
		if err := c.validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestNewAdaptivePPMInputValidation(t *testing.T) {
	pt := mustPT(t, "p", "a", "b")
	cfg := AdaptiveConfig{Epsilon: 1, Alpha: 0.5}
	hist := histWindows()
	targets := []cep.Expr{cep.E("a")}
	if _, err := NewAdaptivePPM(cfg, hist, targets); err == nil {
		t.Error("no private patterns accepted")
	}
	if _, err := NewAdaptivePPM(cfg, hist, nil, pt); err == nil {
		t.Error("no targets accepted")
	}
	if _, err := NewAdaptivePPM(cfg, nil, targets, pt); err == nil {
		t.Error("no history accepted")
	}
	if _, err := NewAdaptivePPM(AdaptiveConfig{Epsilon: -1}, hist, targets, pt); err == nil {
		t.Error("bad config accepted")
	}
}

// TestNewAdaptivePPMConstructorParity pins what NewAdaptivePPM shares with
// NewUniformPPM: the private set is copied, so a caller editing its slice
// afterwards cannot make Private() disagree with the fitted flips, and a
// pattern type without elements is rejected by name with the same error.
func TestNewAdaptivePPMConstructorParity(t *testing.T) {
	cfg := AdaptiveConfig{Epsilon: 1, Alpha: 0.5}
	hist := histWindows()
	targets := []cep.Expr{cep.SeqTypes("a", "b")}
	private := []PatternType{mustPT(t, "p", "a", "b")}
	ada, err := NewAdaptivePPM(cfg, hist, targets, private...)
	if err != nil {
		t.Fatal(err)
	}
	private[0] = mustPT(t, "other", "x", "y")
	if got := ada.Private(); len(got) != 1 || got[0].Name != "p" {
		t.Errorf("Private() = %v after the caller edited its slice, want the fitted set", got)
	}

	empty := PatternType{Name: "hollow"}
	_, errAda := NewAdaptivePPM(cfg, hist, targets, private[0], empty)
	_, errUni := NewUniformPPM(1, private[0], empty)
	want := `core: private pattern type "hollow" has no elements`
	if errAda == nil || errAda.Error() != want {
		t.Errorf("adaptive: empty pattern error = %v, want %s", errAda, want)
	}
	if errUni == nil || errUni.Error() != want {
		t.Errorf("uniform: empty pattern error = %v, want %s", errUni, want)
	}
}

func TestAdaptiveConservesTotalBudget(t *testing.T) {
	pt := mustPT(t, "p", "a", "b")
	cfg := AdaptiveConfig{Epsilon: 1.0, Alpha: 0.5}
	// Target references only "a": all useful budget should flow to "a".
	a, err := NewAdaptivePPM(cfg, histWindows(), []cep.Expr{cep.SeqTypes("a", "b")}, pt)
	if err != nil {
		t.Fatal(err)
	}
	d := a.Distribution(0)
	if math.Abs(float64(d.Total())-1.0) > 1e-9 {
		t.Errorf("fitted total = %v, want 1.0 (budget conservation)", d.Total())
	}
}

func TestAdaptiveImprovesOverUniform(t *testing.T) {
	// Target = SEQ(a, b) where b is nearly always present. Perturbing b
	// hurts little; perturbing a hurts a lot. Adaptive should therefore
	// beat uniform in expected quality.
	pt := mustPT(t, "p", "a", "b")
	hist := histWindows()
	targets := []cep.Expr{cep.SeqTypes("a", "b")}
	eps := AdaptiveConfig{Epsilon: 0.8, Alpha: 0.5, StepFactor: 0.02}

	ada, err := NewAdaptivePPM(eps, hist, targets, pt)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := NewUniformPPM(0.8, pt)
	if err != nil {
		t.Fatal(err)
	}
	qUni := ExpectedQuality(hist, targets, uni.FlipProbs(), 0.5, nil)
	qAda := a2q(ada, hist, targets)
	if qAda+1e-12 < qUni {
		t.Errorf("adaptive %v worse than uniform %v", qAda, qUni)
	}
	if ada.Iterations() == 0 {
		t.Error("adaptive made no moves on a skewed workload")
	}
	if ada.FittedQuality() < qUni-1e-12 {
		t.Errorf("FittedQuality %v below uniform %v", ada.FittedQuality(), qUni)
	}
}

func a2q(a *AdaptivePPM, hist []IndicatorWindow, targets []cep.Expr) float64 {
	return ExpectedQuality(hist, targets, a.FlipProbs(), 0.5, nil)
}

func TestAdaptiveSingleElementIsUniform(t *testing.T) {
	// m = 1: nothing to reallocate; behaves exactly like uniform.
	pt := mustPT(t, "p", "a")
	hist := histWindows()
	ada, err := NewAdaptivePPM(AdaptiveConfig{Epsilon: 1, Alpha: 0.5}, hist, []cep.Expr{cep.E("a")}, pt)
	if err != nil {
		t.Fatal(err)
	}
	uni, _ := NewUniformPPM(1, pt)
	if math.Abs(ada.FlipProb("a")-uni.FlipProb("a")) > 1e-12 {
		t.Errorf("m=1 adaptive flip %v != uniform %v", ada.FlipProb("a"), uni.FlipProb("a"))
	}
	if ada.Iterations() != 0 {
		t.Error("m=1 should take no optimization steps")
	}
}

func TestAdaptiveDeterministic(t *testing.T) {
	pt := mustPT(t, "p", "a", "b")
	hist := histWindows()
	targets := []cep.Expr{cep.SeqTypes("a", "b")}
	cfg := AdaptiveConfig{Epsilon: 1, Alpha: 0.5, Seed: 3}
	a1, err := NewAdaptivePPM(cfg, hist, targets, pt)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewAdaptivePPM(cfg, hist, targets, pt)
	if err != nil {
		t.Fatal(err)
	}
	for _, ty := range []event.Type{"a", "b"} {
		if a1.FlipProb(ty) != a2.FlipProb(ty) {
			t.Errorf("fit not deterministic for %s", ty)
		}
	}
}

func TestAdaptiveMaxItersBounds(t *testing.T) {
	pt := mustPT(t, "p", "a", "b")
	hist := histWindows()
	cfg := AdaptiveConfig{Epsilon: 1, Alpha: 0.5, MaxIters: 1}
	ada, err := NewAdaptivePPM(cfg, hist, []cep.Expr{cep.SeqTypes("a", "b")}, pt)
	if err != nil {
		t.Fatal(err)
	}
	if ada.Iterations() > 1 {
		t.Errorf("Iterations = %d, want <= 1", ada.Iterations())
	}
}

func TestAdaptiveMultiplePatternsFitSequentially(t *testing.T) {
	p1 := mustPT(t, "p1", "a", "b")
	p2 := mustPT(t, "p2", "c", "d")
	rng := rand.New(rand.NewSource(13))
	var wins []IndicatorWindow
	for i := 0; i < 150; i++ {
		wins = append(wins, IndicatorWindow{
			Index: i,
			Present: map[event.Type]bool{
				"a": rng.Float64() < 0.5,
				"b": rng.Float64() < 0.95,
				"c": rng.Float64() < 0.5,
				"d": rng.Float64() < 0.95,
			},
		})
	}
	targets := []cep.Expr{cep.SeqTypes("a", "b"), cep.SeqTypes("c", "d")}
	ada, err := NewAdaptivePPM(AdaptiveConfig{Epsilon: 1, Alpha: 0.5}, wins, targets, p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ada.Private()) != 2 {
		t.Fatal("Private broken")
	}
	for k := 0; k < 2; k++ {
		d := ada.Distribution(k)
		if math.Abs(float64(d.Total())-1.0) > 1e-9 {
			t.Errorf("pattern %d total = %v", k, d.Total())
		}
	}
}

func TestAdaptiveRunPerturbsOnlyPrivateTypes(t *testing.T) {
	pt := mustPT(t, "p", "a", "b")
	hist := histWindows()
	ada, err := NewAdaptivePPM(AdaptiveConfig{Epsilon: 1, Alpha: 0.5}, hist, []cep.Expr{cep.SeqTypes("a", "b")}, pt)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	wins := []IndicatorWindow{{Present: map[event.Type]bool{"a": true, "pub": true}}}
	for i := 0; i < 50; i++ {
		out := ada.Run(rng, wins)
		if !out[0]["pub"] {
			t.Fatal("public type perturbed")
		}
	}
	// The charge is ε, or the fitted split's composed Σεᵢ where its steps
	// rounded a few ulps above ε.
	if eps := float64(ada.TotalEpsilon()); ada.Name() != "adaptive" || eps < 1 || eps > 1+dp.SpendTolerance(1) {
		t.Errorf("metadata broken: name %q, TotalEpsilon %x", ada.Name(), eps)
	}
}

func TestAdaptiveDuplicateElementTypes(t *testing.T) {
	// seq(a, b, a): type "a" receives two independent flips.
	pt := mustPT(t, "p", "a", "b", "a")
	hist := histWindows()
	ada, err := NewAdaptivePPM(AdaptiveConfig{Epsilon: 1.5, Alpha: 0.5}, hist, []cep.Expr{cep.SeqTypes("a", "b")}, pt)
	if err != nil {
		t.Fatal(err)
	}
	// The composed flip can legitimately reach 0.5 (the optimizer may
	// sacrifice the duplicated type entirely — composing with a zero-budget
	// flip destroys the bit), but never exceed it, and the total budget is
	// conserved.
	f := ada.FlipProb("a")
	if f <= 0 || f > 0.5 {
		t.Errorf("composed duplicate-element flip = %v, want in (0, 0.5]", f)
	}
	d := ada.Distribution(0)
	if math.Abs(float64(d.Total())-1.5) > 1e-9 {
		t.Errorf("total budget = %v, want 1.5", d.Total())
	}
	// And the fit must not be worse than the uniform allocation it started from.
	uni, _ := NewUniformPPM(1.5, pt)
	qUni := ExpectedQuality(hist, []cep.Expr{cep.SeqTypes("a", "b")}, uni.FlipProbs(), 0.5, nil)
	if ada.FittedQuality()+1e-12 < qUni {
		t.Errorf("fitted quality %v below uniform %v", ada.FittedQuality(), qUni)
	}
}
