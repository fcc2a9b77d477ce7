package dp

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Sum is a Neumaier-compensated running sum: each Add tracks the rounding
// error the naive addition lost, so a long run of spends — including tiny
// spends absorbed entirely by a large partial sum — accumulates with an error
// of one ulp instead of drifting by O(n) ulps. The zero value is an empty
// sum. Sum is not safe for concurrent use; it is the single-writer
// accumulator behind Accountant and the streaming ledger.
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

// Accountant tracks a total privacy budget and the amounts spent against it,
// keyed by a free-form label (an event type, a timestamp, a mechanism name).
// Sequential composition applies: total spend is the sum of all spends.
// Accountant is safe for concurrent use.
type Accountant struct {
	mu    sync.Mutex
	total Epsilon
	spent map[string]Epsilon
	// sum is the compensated running total of all spends. The per-key map
	// is kept for attribution; enforcement reads the compensated sum, so
	// rounding drift from many small spends cannot creep past total before
	// ErrBudgetExhausted fires (nor exhaust the budget early).
	sum Sum
}

// NewAccountant creates an accountant with the given total budget.
func NewAccountant(total Epsilon) (*Accountant, error) {
	if !total.Valid() {
		return nil, fmt.Errorf("dp: invalid total budget %v", total)
	}
	return &Accountant{total: total, spent: make(map[string]Epsilon)}, nil
}

// Total returns the configured total budget.
func (a *Accountant) Total() Epsilon { return a.total }

// Spent returns the cumulative spend across all keys.
func (a *Accountant) Spent() Epsilon {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spentLocked()
}

func (a *Accountant) spentLocked() Epsilon {
	return Epsilon(a.sum.Value())
}

// Remaining returns the unspent budget (never negative).
func (a *Accountant) Remaining() Epsilon {
	a.mu.Lock()
	defer a.mu.Unlock()
	rem := a.total - a.spentLocked()
	if rem < 0 {
		return 0
	}
	return rem
}

// SpendTolerance returns the float-rounding slack Spend allows on a total
// budget: a few ulps, so an exact split (m spends of total/m) always fits
// while anything past one more representable spend is rejected. The old
// fixed 1e-9 tolerance let accumulated rounding drift admit real over-spends.
func SpendTolerance(total Epsilon) float64 {
	return math.Abs(float64(total)) * 1e-15
}

// Spend records a spend under key. It fails with ErrBudgetExhausted when the
// spend would exceed the total. The running total is a compensated Sum and
// the comparison allows only ulp-scale slack (SpendTolerance), so repeated
// tiny spends can neither drift past the total unnoticed nor be absorbed
// into a large partial sum and spend forever for free.
func (a *Accountant) Spend(key string, eps Epsilon) error {
	if !eps.Valid() {
		return fmt.Errorf("dp: invalid spend %v", eps)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	next := a.sum
	next.Add(float64(eps))
	if next.Value() > float64(a.total)+SpendTolerance(a.total) {
		return fmt.Errorf("%w: spent %.6g + %.6g > total %.6g",
			ErrBudgetExhausted, float64(a.spentLocked()), float64(eps), float64(a.total))
	}
	a.sum = next
	a.spent[key] += eps
	return nil
}

// SpentOn returns the spend recorded under key.
func (a *Accountant) SpentOn(key string) Epsilon {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spent[key]
}

// Keys returns all spend keys in sorted order.
func (a *Accountant) Keys() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.spent))
	for k := range a.spent {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Reset clears all recorded spends.
func (a *Accountant) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.spent = make(map[string]Epsilon)
	a.sum = Sum{}
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

// NewDistribution adopts an explicit allocation. Parts must be non-negative.
func NewDistribution(parts []Epsilon) (*Distribution, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("dp: empty distribution")
	}
	cp := make([]Epsilon, len(parts))
	for i, p := range parts {
		if !p.Valid() {
			return nil, fmt.Errorf("dp: invalid part %d = %v", i, p)
		}
		cp[i] = p
	}
	return &Distribution{parts: cp}, nil
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
