// Package dp provides the differential-privacy primitives the PPMs are built
// from: per-element budget distributions, the randomized-response flip
// probabilities they set for binary indicators, and their sequential
// composition; the Laplace and geometric mechanisms for numeric queries; and
// the compensated sum the streaming ledger accounts spend with.
//
// All stochastic functions take an explicit *rand.Rand so experiments are
// reproducible; none touch global random state.
package dp

import (
	"fmt"
	"math"
	"math/rand"
)

// Epsilon is a privacy budget (the ε of ε-DP). Larger means weaker privacy.
type Epsilon float64

// Valid reports whether the budget is a usable finite non-negative value.
func (e Epsilon) Valid() bool {
	f := float64(e)
	return f >= 0 && !math.IsInf(f, 0) && !math.IsNaN(f)
}

// Laplace samples Laplace(0, scale) noise. scale must be positive.
func Laplace(rng *rand.Rand, scale float64) float64 {
	if scale <= 0 || math.IsNaN(scale) {
		panic(fmt.Sprintf("dp: non-positive Laplace scale %v", scale))
	}
	// Inverse-CDF sampling: U uniform on (-1/2, 1/2).
	u := rng.Float64() - 0.5
	return -scale * sign(u) * math.Log(1-2*math.Abs(u))
}

// Geometric samples two-sided geometric noise with parameter α = e^{-ε/sens},
// the discrete analogue of the Laplace mechanism for integer counts.
func Geometric(rng *rand.Rand, sens float64, eps Epsilon) (int64, error) {
	if !eps.Valid() || eps == 0 {
		return 0, fmt.Errorf("dp: invalid epsilon %v for geometric mechanism", eps)
	}
	if sens <= 0 {
		return 0, fmt.Errorf("dp: non-positive sensitivity %v", sens)
	}
	alpha := math.Exp(-float64(eps) / sens)
	// Difference of two geometric variables.
	g := func() int64 {
		// P(X = k) = (1-alpha) * alpha^k, k >= 0.
		u := rng.Float64()
		return int64(math.Floor(math.Log(1-u) / math.Log(alpha)))
	}
	return g() - g(), nil
}

func sign(f float64) float64 {
	if f < 0 {
		return -1
	}
	return 1
}
