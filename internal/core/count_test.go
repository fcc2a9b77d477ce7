package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"patterndp/internal/dp"
	"patterndp/internal/event"
)

func TestNewCountPPMValidation(t *testing.T) {
	pt := mustPT(t, "p", "a")
	if _, err := NewCountPPM(0, pt); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := NewCountPPM(-1, pt); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := NewCountPPM(1); err == nil {
		t.Error("no patterns accepted")
	}
	c, err := NewCountPPM(2, pt)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "count" || c.TotalEpsilon() != 2 || len(c.private) != 1 {
		t.Error("metadata broken")
	}
}

// elementBudget returns the smallest per-release budget applied to an event
// type's count (the binding constraint when several patterns claim it), or 0
// if the type is not protected.
func elementBudget(c *CountPPM, t event.Type) dp.Epsilon {
	bs := c.budgets[t]
	if len(bs) == 0 {
		return 0
	}
	return slices.Min(bs)
}

func TestCountPPMElementBudget(t *testing.T) {
	p1 := mustPT(t, "p1", "a", "b")      // per-element budget 1
	p2 := mustPT(t, "p2", "a", "c", "d") // per-element budget 2/3
	c, _ := NewCountPPM(2, p1, p2)
	if got := elementBudget(c, "a"); math.Abs(float64(got)-2.0/3) > 1e-12 {
		t.Errorf("ElementBudget(a) = %v, want 2/3 (binding constraint)", got)
	}
	if got := elementBudget(c, "b"); math.Abs(float64(got)-1.0) > 1e-12 {
		t.Errorf("ElementBudget(b) = %v", got)
	}
	if elementBudget(c, "zzz") != 0 {
		t.Error("unprotected type has non-zero budget")
	}
}

func TestReleaseCountsPublicPassThrough(t *testing.T) {
	pt := mustPT(t, "p", "a")
	c, _ := NewCountPPM(1, pt)
	rng := rand.New(rand.NewSource(1))
	out, err := c.ReleaseCounts(rng, map[event.Type]int{"a": 3, "pub": 7})
	if err != nil {
		t.Fatal(err)
	}
	if out["pub"] != 7 {
		t.Errorf("public count perturbed: %d", out["pub"])
	}
}

func TestReleaseCountsNonNegative(t *testing.T) {
	pt := mustPT(t, "p", "a")
	c, _ := NewCountPPM(0.1, pt) // heavy noise
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		out, err := c.ReleaseCounts(rng, map[event.Type]int{"a": 0})
		if err != nil {
			t.Fatal(err)
		}
		if out["a"] < 0 {
			t.Fatalf("negative released count %d", out["a"])
		}
	}
}

func TestReleaseCountsUnbiasedAtHighBudget(t *testing.T) {
	pt := mustPT(t, "p", "a")
	c, _ := NewCountPPM(50, pt)
	rng := rand.New(rand.NewSource(3))
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		out, _ := c.ReleaseCounts(rng, map[event.Type]int{"a": 10})
		sum += float64(out["a"])
	}
	mean := sum / n
	if math.Abs(mean-10) > 0.2 {
		t.Errorf("high-budget mean = %v, want ~10", mean)
	}
}

func TestReleaseCountsNoiseScalesWithBudget(t *testing.T) {
	pt := mustPT(t, "p", "a")
	variance := func(eps float64, seed int64) float64 {
		c, _ := NewCountPPM(dp.Epsilon(eps), pt)
		rng := rand.New(rand.NewSource(seed))
		var sum, sumSq float64
		const n = 3000
		for i := 0; i < n; i++ {
			out, _ := c.ReleaseCounts(rng, map[event.Type]int{"a": 50})
			v := float64(out["a"])
			sum += v
			sumSq += v * v
		}
		m := sum / n
		return sumSq/n - m*m
	}
	loBudget := variance(0.5, 4)
	hiBudget := variance(5, 5)
	if loBudget <= hiBudget {
		t.Errorf("variance at eps=0.5 (%v) should exceed variance at eps=5 (%v)", loBudget, hiBudget)
	}
}

func TestCountPPMRunAsMechanism(t *testing.T) {
	pt := mustPT(t, "p", "a")
	c, _ := NewCountPPM(40, pt)
	var _ Mechanism = c
	wins := []IndicatorWindow{
		{Present: map[event.Type]bool{"a": true, "pub": false},
			Counts: map[event.Type]int{"a": 2, "pub": 0}},
	}
	rng := rand.New(rand.NewSource(6))
	out := c.Run(rng, wins)
	if !out[0]["a"] {
		t.Error("high-budget count release lost the indicator")
	}
	if out[0]["pub"] {
		t.Error("absent public type reported present")
	}
}

func TestCountPPMDPEmpirically(t *testing.T) {
	// Neighbor counts differing by 1 must have bounded likelihood ratios
	// under the per-element budget.
	pt := mustPT(t, "p", "a")
	eps := 1.0
	c, _ := NewCountPPM(dp.Epsilon(eps), pt)
	rng := rand.New(rand.NewSource(7))
	const trials = 200000
	countsA := map[string]int{}
	countsB := map[string]int{}
	for i := 0; i < trials; i++ {
		outA, _ := c.ReleaseCounts(rng, map[event.Type]int{"a": 5})
		outB, _ := c.ReleaseCounts(rng, map[event.Type]int{"a": 6})
		countsA[keyOf(outA["a"])]++
		countsB[keyOf(outB["a"])]++
	}
	ratio := EmpiricalRatio(countsA, countsB, trials)
	if ratio > eps+0.1 {
		t.Errorf("likelihood ratio %v exceeds eps %v", ratio, eps)
	}
}

func keyOf(v int64) string {
	return string(rune('0' + (v % 64)))
}
