package dp

import (
	"fmt"
	"math"
)

// Sum is a Neumaier-compensated running sum: each Add tracks the rounding
// error the naive addition lost, so a long run of spends — including tiny
// spends absorbed entirely by a large partial sum — accumulates with an error
// of one ulp instead of drifting by O(n) ulps. The zero value is an empty
// sum. Sum is not safe for concurrent use; it is the single-writer
// accumulator behind the streaming ledger.
type Sum struct {
	s, c float64
}

// Add accumulates x.
func (k *Sum) Add(x float64) {
	t := k.s + x
	if math.Abs(k.s) >= math.Abs(x) {
		k.c += (k.s - t) + x
	} else {
		k.c += (x - t) + k.s
	}
	k.s = t
}

// Value returns the compensated sum.
func (k Sum) Value() float64 { return k.s + k.c }

// SpendTolerance returns the float-rounding slack a budget check allows on a
// total budget: a few ulps, so an exact split (m spends of total/m) always
// fits while anything past one more representable spend is rejected. The old
// fixed 1e-9 tolerance let accumulated rounding drift admit real over-spends.
func SpendTolerance(total Epsilon) float64 {
	return math.Abs(float64(total)) * 1e-15
}

// Distribution is an allocation of a total budget across m items. It is the
// vector (ε1, …, εm) with Σεi = ε that both PPMs manage.
type Distribution struct {
	parts []Epsilon
}

// UniformDistribution splits total evenly across m items (Fig. 3).
func UniformDistribution(total Epsilon, m int) (*Distribution, error) {
	if !total.Valid() {
		return nil, fmt.Errorf("dp: invalid total budget %v", total)
	}
	if m <= 0 {
		return nil, fmt.Errorf("dp: distribution over %d items", m)
	}
	parts := make([]Epsilon, m)
	each := total / Epsilon(m)
	for i := range parts {
		parts[i] = each
	}
	return &Distribution{parts: parts}, nil
}

// Len returns the number of items.
func (d *Distribution) Len() int { return len(d.parts) }

// Part returns εi.
func (d *Distribution) Part(i int) Epsilon { return d.parts[i] }

// Parts returns a copy of the allocation vector.
func (d *Distribution) Parts() []Epsilon {
	out := make([]Epsilon, len(d.parts))
	copy(out, d.parts)
	return out
}

// Total returns Σεi.
func (d *Distribution) Total() Epsilon {
	var sum Epsilon
	for _, p := range d.parts {
		sum += p
	}
	return sum
}

// Set replaces εi, clamping to [0, ∞).
func (d *Distribution) Set(i int, eps Epsilon) {
	if eps < 0 {
		eps = 0
	}
	d.parts[i] = eps
}

// Shift moves delta of budget onto item i, taking it evenly from all other
// items (the inner move of Algorithm 1, line 7). Amounts are clamped so no
// part goes negative; the actual shifted amount is returned.
func (d *Distribution) Shift(i int, delta Epsilon) Epsilon {
	if len(d.parts) < 2 || delta <= 0 {
		return 0
	}
	per := delta / Epsilon(len(d.parts)-1)
	var taken Epsilon
	for j := range d.parts {
		if j == i {
			continue
		}
		t := per
		if d.parts[j] < t {
			t = d.parts[j]
		}
		d.parts[j] -= t
		taken += t
	}
	d.parts[i] += taken
	return taken
}

// Clone returns a deep copy.
func (d *Distribution) Clone() *Distribution {
	return &Distribution{parts: d.Parts()}
}

// FlipProbs converts the allocation into per-item randomized-response flip
// probabilities p_i = 1/(1+e^{ε_i}).
func (d *Distribution) FlipProbs() []float64 {
	return d.FlipProbsInto(make([]float64, len(d.parts)))
}

// FlipProbsInto is FlipProbs writing into dst, which must hold Len() items;
// it returns dst.
func (d *Distribution) FlipProbsInto(dst []float64) []float64 {
	for i, eps := range d.parts {
		dst[i] = 1 / (1 + math.Exp(float64(eps)))
	}
	return dst
}

// ComposedEpsilon computes the pattern-level budget guaranteed by Theorem 1
// for per-item flip probabilities probs: Σ ln((1−p_i)/p_i).
func ComposedEpsilon(probs []float64) Epsilon {
	var sum float64
	for _, p := range probs {
		if p <= 0 {
			return Epsilon(math.Inf(1))
		}
		sum += math.Log((1 - p) / p)
	}
	return Epsilon(sum)
}
