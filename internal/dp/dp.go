// Package dp provides the differential-privacy primitives the PPMs are built
// from: randomized response over binary indicators, the Laplace and geometric
// mechanisms for numeric queries, per-element budget distributions and their
// sequential composition, and the compensated sum the streaming ledger
// accounts spend with.
//
// All stochastic functions take an explicit *rand.Rand so experiments are
// reproducible; none touch global random state.
package dp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrBudgetExhausted is returned when a budget cannot cover a spend.
var ErrBudgetExhausted = errors.New("dp: privacy budget exhausted")

// Epsilon is a privacy budget (the ε of ε-DP). Larger means weaker privacy.
type Epsilon float64

// Valid reports whether the budget is a usable finite non-negative value.
func (e Epsilon) Valid() bool {
	f := float64(e)
	return f >= 0 && !math.IsInf(f, 0) && !math.IsNaN(f)
}

// RandomizedResponse is the binary randomized-response mechanism of
// Definition 5: it reports the true bit with probability 1−p and flips it
// with probability p. For p ≤ 1/2 it satisfies ε-DP on that bit with
// ε = ln((1−p)/p).
type RandomizedResponse struct {
	p float64
}

// NewRandomizedResponse builds the mechanism from a flip probability
// p ∈ [0, 1/2].
func NewRandomizedResponse(p float64) (RandomizedResponse, error) {
	if math.IsNaN(p) || p < 0 || p > 0.5 {
		return RandomizedResponse{}, fmt.Errorf("dp: flip probability %v outside [0, 0.5]", p)
	}
	return RandomizedResponse{p: p}, nil
}

// RRFromEpsilon builds the mechanism that satisfies exactly ε-DP on one bit:
// p = 1 / (1 + e^ε). ε = 0 gives p = 1/2 (a coin flip, perfect privacy);
// ε → ∞ gives p → 0 (no protection).
func RRFromEpsilon(eps Epsilon) (RandomizedResponse, error) {
	if !eps.Valid() {
		return RandomizedResponse{}, fmt.Errorf("dp: invalid epsilon %v", eps)
	}
	p := 1 / (1 + math.Exp(float64(eps)))
	return RandomizedResponse{p: p}, nil
}

// FlipProb returns the flip probability p.
func (r RandomizedResponse) FlipProb() float64 { return r.p }

// Epsilon returns the per-bit privacy budget ε = ln((1−p)/p). For p = 0 it
// returns +Inf.
func (r RandomizedResponse) Epsilon() Epsilon {
	if r.p == 0 {
		return Epsilon(math.Inf(1))
	}
	return Epsilon(math.Log((1 - r.p) / r.p))
}

// Respond perturbs one bit.
func (r RandomizedResponse) Respond(rng *rand.Rand, truth bool) bool {
	if rng.Float64() < r.p {
		return !truth
	}
	return truth
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
