package core

import (
	"fmt"
	"math/rand"

	"patterndp/internal/dp"
	"patterndp/internal/event"
)

// CountPPM extends pattern-level DP from binary answers to per-window event
// counts — the numerical-answer direction the paper points at in Section V
// ("drivers can be interested in the numbers of nearby passengers").
//
// For each private pattern type the total budget ε is split evenly over the
// m elements; each element type's per-window count is released through the
// geometric mechanism with budget ε_i and sensitivity 1 (two pattern-level
// neighbors differ in one element event, changing one count by one).
// Sequential composition over the elements yields pattern-level ε-DP, by the
// same argument as Theorem 1 with the randomized-response factors replaced
// by geometric-mechanism likelihood ratios.
//
// CountPPM also implements Mechanism: released indicators are the noisy
// counts thresholded at 0.5, so it can be compared in the binary harness.
type CountPPM struct {
	private []PatternType
	eps     dp.Epsilon
	// budgets lists, per event type, the per-element budgets of each
	// private pattern claiming it (noise composes by sequential addition).
	budgets map[event.Type][]dp.Epsilon
}

// NewCountPPM configures the mechanism with a total per-pattern budget.
func NewCountPPM(eps dp.Epsilon, private ...PatternType) (*CountPPM, error) {
	if !eps.Valid() || eps == 0 {
		return nil, fmt.Errorf("core: count PPM needs a positive budget, got %v", eps)
	}
	if len(private) == 0 {
		return nil, fmt.Errorf("core: count PPM needs at least one private pattern type")
	}
	c := &CountPPM{eps: eps, budgets: make(map[event.Type][]dp.Epsilon)}
	for _, pt := range private {
		if pt.Len() == 0 {
			return nil, fmt.Errorf("core: private pattern type %q has no elements", pt.Name)
		}
		per := eps / dp.Epsilon(pt.Len())
		for _, t := range pt.Elements {
			c.budgets[t] = append(c.budgets[t], per)
		}
		c.private = append(c.private, pt)
	}
	return c, nil
}

// Name implements Mechanism.
func (c *CountPPM) Name() string { return "count" }

// TotalEpsilon implements Mechanism.
func (c *CountPPM) TotalEpsilon() dp.Epsilon { return c.eps }

// ReleaseCounts releases one window's per-type counts. Counts of types not
// claimed by any private pattern pass through exactly. Protected types are
// noised once per claiming pattern (independent sequential releases compose;
// the noisiest release is returned, which is the information actually safe
// to publish).
func (c *CountPPM) ReleaseCounts(rng *rand.Rand, counts map[event.Type]int) (map[event.Type]int64, error) {
	out := make(map[event.Type]int64, len(counts))
	for _, t := range sortedCountTypes(counts) {
		truth := int64(counts[t])
		bs := c.budgets[t]
		if len(bs) == 0 {
			out[t] = truth
			continue
		}
		released := truth
		worstNoise := int64(0)
		first := true
		for _, b := range bs {
			noise, err := dp.Geometric(rng, 1, b)
			if err != nil {
				return nil, err
			}
			if first || absInt64(noise) > absInt64(worstNoise) {
				worstNoise = noise
				first = false
			}
		}
		released = truth + worstNoise
		if released < 0 {
			released = 0 // counts are non-negative; clamping is post-processing
		}
		out[t] = released
	}
	return out, nil
}

// Run implements Mechanism by thresholding released counts to indicators.
// Every tracked type is released, including those with zero counts — a type
// whose absence is released exactly would break the DP guarantee (its
// presence bit would be deterministic), so zero counts are noised too.
func (c *CountPPM) Run(rng *rand.Rand, wins []IndicatorWindow) []map[event.Type]bool {
	out := make([]map[event.Type]bool, len(wins))
	for i, w := range wins {
		full := make(map[event.Type]int, len(w.Present))
		for t := range w.Present {
			full[t] = w.Counts[t] // zero when absent from Counts
		}
		counts, err := c.ReleaseCounts(rng, full)
		if err != nil {
			// Construction validated all budgets; release cannot fail.
			panic(err)
		}
		rel := make(map[event.Type]bool, len(w.Present))
		for t := range w.Present {
			rel[t] = counts[t] >= 1
		}
		out[i] = rel
	}
	return out
}

func sortedCountTypes(counts map[event.Type]int) []event.Type {
	out := make([]event.Type, 0, len(counts))
	for t := range counts {
		out = append(out, t)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func absInt64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
