package dp

import (
	"math"
	"math/big"
	"testing"
)

// fits is the budget check the streaming ledger makes with a Sum: would
// adding eps keep the spend within total plus SpendTolerance?
func fits(spent Sum, eps, total float64) bool {
	spent.Add(eps)
	return spent.Value() <= total+SpendTolerance(Epsilon(total))
}

// TestSumCompensation checks the Neumaier sum against exact big.Float
// arithmetic on the patterns naive summation gets wrong — many values too
// small to move the running total individually — and, with SpendTolerance,
// the budget checks built on it: a run of tiny spends must stop exactly
// where the true total is reached, spends below the running sum's ulp must
// still exhaust the budget, and an exact m-way split must fit with nothing
// after it.
func TestSumCompensation(t *testing.T) {
	var k Sum
	exact := new(big.Float).SetPrec(200)
	k.Add(1.0)
	exact.Add(exact, big.NewFloat(1.0))
	for i := 0; i < 1000; i++ {
		k.Add(1e-17) // below ulp(1.0): naive addition absorbs every one
		exact.Add(exact, big.NewFloat(1e-17))
	}
	want, _ := exact.Float64()
	if got := k.Value(); math.Abs(got-want) > 1e-18 {
		t.Fatalf("compensated sum = %.20g, exact = %.20g", got, want)
	}
	// The naive sum loses all 1000 additions.
	naive := 1.0
	for i := 0; i < 1000; i++ {
		naive += 1e-17
	}
	if naive != 1.0 {
		t.Fatalf("expected naive absorption, got %.20g", naive)
	}

	t.Run("tiny spend drift", func(t *testing.T) {
		// fl(1e-6) is slightly above 1e-6, so exactly 999_999 spends fit a
		// total of 1 and the millionth must not.
		var spent Sum
		n := 0
		for fits(spent, 1e-6, 1) {
			spent.Add(1e-6)
			n++
			if n > 2_000_000 {
				t.Fatal("budget never exhausted")
			}
		}
		// Exact check: n*fl(eps) <= total < (n+1)*fl(eps), modulo the
		// ulp-scale tolerance.
		total := new(big.Float).SetPrec(200).SetFloat64(1.0)
		step := new(big.Float).SetPrec(200).SetFloat64(1e-6)
		sum := new(big.Float).SetPrec(200).Mul(step, big.NewFloat(float64(n)))
		slack := big.NewFloat(SpendTolerance(1.0) + 1e-18)
		if sum.Cmp(new(big.Float).Add(total, slack)) > 0 {
			t.Fatalf("admitted %d spends: true total %v exceeds budget", n, sum)
		}
		if next := new(big.Float).Add(sum, step); next.Cmp(new(big.Float).Sub(total, slack)) < 0 {
			t.Fatalf("stopped early at %d spends: one more would still fit", n)
		}
		if got := spent.Value(); math.Abs(got-float64(n)*1e-6) > 1e-9 {
			t.Fatalf("spent = %v, want ~%v", got, float64(n)*1e-6)
		}
	})

	t.Run("absorbed spends exhaust", func(t *testing.T) {
		// After a spend close to the total, spends below the ulp of the
		// running sum must still accumulate; a naive sum absorbs them and
		// spends forever.
		var spent Sum
		spent.Add(1 - 1e-12)
		for i := 0; ; i++ {
			if i == 100_000 {
				t.Fatal("100k absorbed spends never exhausted the budget")
			}
			if !fits(spent, 1e-16, 1) {
				break
			}
			spent.Add(1e-16)
		}
	})

	t.Run("exact split", func(t *testing.T) {
		const m = 7
		var spent Sum
		for i := 0; i < m; i++ {
			if !fits(spent, 1.0/m, 1) {
				t.Fatalf("spend %d/%d refused", i+1, m)
			}
			spent.Add(1.0 / m)
		}
		if fits(spent, 1.0/m, 1) {
			t.Fatal("spend past the total admitted")
		}
	})
}
