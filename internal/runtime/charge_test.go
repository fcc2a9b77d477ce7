package runtime

import (
	"fmt"
	"math"
	"testing"

	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/dp"
	"patterndp/internal/event"
	"patterndp/internal/synth"
)

// composedCharge is what a release must cost under Theorem 1: the configured
// ε, or any pattern's left-to-right Σεᵢ that exceeds it.
func composedCharge(eps dp.Epsilon, dists []*dp.Distribution) dp.Epsilon {
	charge := eps
	for _, d := range dists {
		var sum dp.Epsilon
		for _, p := range d.Parts() {
			sum += p
		}
		charge = max(charge, sum)
	}
	return charge
}

// TestChargeCoversComposedSplit: a PPM's TotalEpsilon — the per-window charge
// the ledger books — is never below the pattern-level ε its split composes
// to. Float splits can sum a few ulps past the configured ε (a 9-way uniform
// split of 1, most fitted AdaptivePPM splits), and charging only ε would
// under-count every release by that much. Inputs: the 30 AdaptivePPM fits of
// internal/core/testdata/adaptive_fit.golden and uniform splits of m = 1..10
// elements.
// Each family must hold at least one split that composes past ε, so the test
// keeps exercising the rounding it guards against. A runtime serving each
// mechanism must then book exactly admitted × TotalEpsilon.
func TestChargeCoversComposedSplit(t *testing.T) {
	type ppm struct {
		name    string
		eps     dp.Epsilon
		mech    core.Mechanism
		private []core.PatternType
		dists   []*dp.Distribution
	}
	var uniform, adaptive []ppm
	for m := 1; m <= 10; m++ {
		elems := make([]event.Type, m)
		for i := range elems {
			elems[i] = event.Type(fmt.Sprintf("e%d", i))
		}
		pt, err := core.NewPatternType("p", elems...)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []dp.Epsilon{0.1, 0.5, 1, 2, 5} {
			u, err := core.NewUniformPPM(eps, pt)
			if err != nil {
				t.Fatal(err)
			}
			d, _ := dp.UniformDistribution(eps, m)
			uniform = append(uniform, ppm{fmt.Sprintf("uniform m=%d eps=%g", m, eps), eps, u, []core.PatternType{pt}, []*dp.Distribution{d}})
		}
	}
	for _, history := range []int{100, 1000} {
		for seed := int64(1); seed <= 5; seed++ {
			cfg := synth.DefaultConfig(seed)
			cfg.NumTarget = 12
			cfg.NumWindows = 2 * history
			ds, err := synth.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			hist := ds.IndicatorWindows()[:history]
			for _, eps := range []dp.Epsilon{0.1, 1, 5} {
				a, err := core.NewAdaptivePPM(core.AdaptiveConfig{Epsilon: eps, Alpha: 0.5, Seed: seed}, hist, ds.TargetExprs(), ds.PrivateTypes()...)
				if err != nil {
					t.Fatal(err)
				}
				dists := make([]*dp.Distribution, len(a.Private()))
				for k := range dists {
					dists[k] = a.Distribution(k)
				}
				adaptive = append(adaptive, ppm{fmt.Sprintf("adaptive history=%d seed=%d eps=%g", history, seed, eps), eps, a, a.Private(), dists})
			}
		}
	}

	for _, family := range [][]ppm{uniform, adaptive} {
		past := 0
		for _, p := range family {
			want := composedCharge(p.eps, p.dists)
			if got := p.mech.TotalEpsilon(); got != want {
				t.Errorf("%s: TotalEpsilon = %x, want max(eps, Σεᵢ) = %x", p.name, float64(got), float64(want))
			}
			if want > p.eps {
				past++
			}
		}
		if past == 0 {
			t.Errorf("%s family: no split composes past its ε; the rounding case is not exercised", family[0].name)
		}
	}

	// The ledger books the mechanism's charge per admitted window: a 9-way
	// uniform split of ε = 1 and the first adaptive fit that rounds up.
	served := []ppm{uniform[8*5+2]}
	for _, p := range adaptive {
		if composedCharge(p.eps, p.dists) > p.eps {
			served = append(served, p)
			break
		}
	}
	for _, p := range served {
		t.Run(p.name, func(t *testing.T) { checkLedgerCharge(t, p.mech, p.private) })
	}
}

// checkLedgerCharge serves one stream through m, which protects private,
// with an ample grant and checks the ledger's declared charge and its total
// spend against m.TotalEpsilon().
func checkLedgerCharge(t *testing.T, m core.Mechanism, private []core.PatternType) {
	t.Helper()
	const width, windows = 10, 40
	rt, err := New(Config{
		Shards:       1,
		WindowWidth:  width,
		Mechanism:    func(int) (core.Mechanism, error) { return m, nil },
		Private:      private,
		Targets:      []cep.Query{{Name: "q", Pattern: cep.E(private[0].Elements[0]), Window: width}},
		Seed:         1,
		Budget:       1e6,
		BudgetPolicy: BudgetDeny,
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w <= windows; w++ {
		if err := rt.Ingest(event.New(private[0].Elements[0], event.Timestamp(w*width)).WithSource("s")); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	b := rt.Snapshot().Budget
	charge := m.TotalEpsilon()
	if b.Charge != charge {
		t.Errorf("ledger charge %x, mechanism TotalEpsilon %x", float64(b.Charge), float64(charge))
	}
	if b.Admitted < windows {
		t.Fatalf("admitted %d windows, want at least %d", b.Admitted, windows)
	}
	want := float64(b.Admitted) * float64(charge)
	if got := float64(b.Spent + b.Retired); math.Abs(got-want) > dp.SpendTolerance(dp.Epsilon(want)) {
		t.Errorf("ledger spent %x after %d windows, want %d × %x = %x", got, b.Admitted, b.Admitted, float64(charge), want)
	}
}
