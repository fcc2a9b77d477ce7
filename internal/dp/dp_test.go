package dp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEpsilonValid(t *testing.T) {
	if !Epsilon(0).Valid() || !Epsilon(1.5).Valid() {
		t.Error("valid epsilons rejected")
	}
	for _, e := range []Epsilon{-1, Epsilon(math.Inf(1)), Epsilon(math.NaN())} {
		if e.Valid() {
			t.Errorf("invalid epsilon %v accepted", e)
		}
	}
}

func TestLaplaceMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 400000
	scale := 2.0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := Laplace(rng, scale)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("Laplace mean %v, want ~0", mean)
	}
	want := 2 * scale * scale // Var = 2b²
	if math.Abs(variance-want)/want > 0.05 {
		t.Errorf("Laplace variance %v, want ~%v", variance, want)
	}
}

func TestLaplacePanicsOnBadScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Laplace(rand.New(rand.NewSource(1)), 0)
}

func TestGeometricMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		g, err := Geometric(rng, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		sum += float64(g)
	}
	if mean := sum / n; math.Abs(mean) > 0.05 {
		t.Errorf("geometric mean %v, want ~0", mean)
	}
	if _, err := Geometric(rng, 0, 1); err == nil {
		t.Error("sens=0 accepted")
	}
	if _, err := Geometric(rng, 1, 0); err == nil {
		t.Error("eps=0 accepted")
	}
}

func TestUniformDistribution(t *testing.T) {
	d, err := UniformDistribution(3.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Errorf("Len = %d", d.Len())
	}
	for i := 0; i < 3; i++ {
		if math.Abs(float64(d.Part(i)-1.0)) > 1e-12 {
			t.Errorf("Part(%d) = %v", i, d.Part(i))
		}
	}
	if math.Abs(float64(d.Total()-3.0)) > 1e-12 {
		t.Errorf("Total = %v", d.Total())
	}
	if _, err := UniformDistribution(1, 0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := UniformDistribution(-1, 2); err == nil {
		t.Error("negative total accepted")
	}
}

func TestDistributionShiftConservesTotal(t *testing.T) {
	d, _ := UniformDistribution(3.0, 3)
	before := d.Total()
	moved := d.Shift(0, 0.3)
	if math.Abs(float64(moved-0.3)) > 1e-12 {
		t.Errorf("moved = %v", moved)
	}
	if math.Abs(float64(d.Total()-before)) > 1e-9 {
		t.Errorf("Shift changed total: %v -> %v", before, d.Total())
	}
	if d.Part(0) <= 1.0 {
		t.Error("target part did not grow")
	}
}

func TestDistributionShiftClampsAtZero(t *testing.T) {
	d := &Distribution{parts: []Epsilon{1, 0.01, 1}}
	moved := d.Shift(0, 1.0) // wants 0.5 from each other part; part 1 has 0.01
	if d.Part(1) < 0 || d.Part(2) < 0 {
		t.Error("a part went negative")
	}
	if float64(moved) > 0.52 {
		t.Errorf("moved %v, want <= 0.51", moved)
	}
}

func TestDistributionShiftDegenerate(t *testing.T) {
	d := &Distribution{parts: []Epsilon{5}}
	if d.Shift(0, 1) != 0 {
		t.Error("single-item shift should be a no-op")
	}
	d2, _ := UniformDistribution(2, 2)
	if d2.Shift(0, 0) != 0 || d2.Shift(0, -1) != 0 {
		t.Error("non-positive delta should be a no-op")
	}
}

func TestDistributionSetClamps(t *testing.T) {
	d, _ := UniformDistribution(2, 2)
	d.Set(0, -5)
	if d.Part(0) != 0 {
		t.Error("Set did not clamp negative")
	}
	d.Set(1, 7)
	if d.Part(1) != 7 {
		t.Error("Set failed")
	}
}

func TestDistributionCloneIndependent(t *testing.T) {
	d, _ := UniformDistribution(2, 2)
	c := d.Clone()
	c.Set(0, 9)
	if d.Part(0) == 9 {
		t.Error("Clone aliases parent")
	}
	p := d.Parts()
	p[0] = 42
	if d.Part(0) == 42 {
		t.Error("Parts aliases internal state")
	}
}

func TestFlipProbsComposeToTotal(t *testing.T) {
	// Property (Theorem 1 accounting): for any uniform split of ε over m
	// items, composing the per-item budgets recovers ε.
	f := func(rawEps uint8, rawM uint8) bool {
		eps := Epsilon(float64(rawEps%100)/10 + 0.01)
		m := int(rawM%8) + 1
		d, err := UniformDistribution(eps, m)
		if err != nil {
			return false
		}
		got := ComposedEpsilon(d.FlipProbs())
		return math.Abs(float64(got-eps)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComposedEpsilonInfinity(t *testing.T) {
	if !math.IsInf(float64(ComposedEpsilon([]float64{0.5, 0})), 1) {
		t.Error("p=0 item should give infinite composed epsilon")
	}
}
