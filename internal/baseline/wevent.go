package baseline

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"patterndp/internal/core"
	"patterndp/internal/dp"
	"patterndp/internal/event"
)

// WEventConfig configures the two w-event mechanisms.
type WEventConfig struct {
	// PatternEpsilon is the pattern-level budget the mechanism is held to;
	// it is converted to the w-event budget via ConvertToWEvent.
	PatternEpsilon dp.Epsilon
	// W is the w-event window length in timestamps (window indices).
	W int
	// Private are the pattern types the conversion refers to.
	Private []core.PatternType
}

func (c WEventConfig) validate() error {
	if !c.PatternEpsilon.Valid() {
		return fmt.Errorf("baseline: invalid budget %v", c.PatternEpsilon)
	}
	if c.W <= 0 {
		return fmt.Errorf("baseline: w=%d must be positive", c.W)
	}
	if len(c.Private) == 0 {
		return fmt.Errorf("baseline: no private pattern types")
	}
	return nil
}

// BudgetDistribution is the BD mechanism of Kellaris et al.: half of the
// w-event budget pays for (noisy) dissimilarity decisions, the other half is
// distributed over publications in an exponentially decreasing fashion —
// each publication spends half of the budget still available in the current
// window. Timestamps whose counts are similar to the last release republish
// it for free.
//
// Every relevant event type's count is perturbed at publication timestamps —
// BD is a stream-level mechanism, which is its handicap against the
// pattern-level PPMs.
type BudgetDistribution struct {
	cfg  WEventConfig
	wEps dp.Epsilon
}

// NewBudgetDistribution validates the configuration and converts the budget.
func NewBudgetDistribution(cfg WEventConfig) (*BudgetDistribution, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	wEps, err := ConvertToWEvent(cfg.PatternEpsilon, cfg.W, maxPatternLen(cfg.Private))
	if err != nil {
		return nil, err
	}
	return &BudgetDistribution{cfg: cfg, wEps: wEps}, nil
}

// Name implements core.Mechanism.
func (b *BudgetDistribution) Name() string { return "bd" }

// TotalEpsilon implements core.Mechanism: the pattern-level budget after
// conversion.
func (b *BudgetDistribution) TotalEpsilon() dp.Epsilon { return b.cfg.PatternEpsilon }

// Run implements core.Mechanism.
func (b *BudgetDistribution) Run(rng *rand.Rand, wins []core.IndicatorWindow) []map[event.Type]bool {
	types := sortedTypes(wins)
	out := make([]map[event.Type]bool, len(wins))

	epsDis := float64(b.wEps) / 2 // dissimilarity half
	epsPub := float64(b.wEps) / 2 // publication half
	epsDisPerTS := epsDis / float64(b.cfg.W)

	last := make(map[event.Type]float64) // last released counts
	// pubSpend[i] is the publication budget spent at timestamp i; the
	// budget available at t is epsPub minus the spend in (t-W, t).
	pubSpend := make([]float64, len(wins))

	for i, w := range wins {
		release := make(map[event.Type]bool, len(types))
		// Noisy average dissimilarity between current counts and last
		// release (sensitivity 1/|types| for the average).
		dis := 0.0
		for _, t := range types {
			dis += math.Abs(float64(w.Counts[t]) - last[t])
		}
		dis /= float64(len(types))
		if epsDisPerTS > 0 {
			dis += dp.Laplace(rng, 1/(float64(len(types))*epsDisPerTS))
		}

		// Budget remaining in the sliding window.
		used := 0.0
		for j := maxInt(0, i-b.cfg.W+1); j < i; j++ {
			used += pubSpend[j]
		}
		avail := epsPub - used
		pub := avail / 2

		// Publish when the expected approximation error (the
		// dissimilarity) exceeds the expected publication error (the
		// Laplace scale 1/pub).
		if pub > 0 && dis > 1/pub {
			pubSpend[i] = pub
			for _, t := range types {
				noisy := float64(w.Counts[t]) + dp.Laplace(rng, 1/pub)
				last[t] = noisy
				release[t] = indicatorFromCount(noisy)
			}
		} else {
			for _, t := range types {
				release[t] = indicatorFromCount(last[t])
			}
		}
		out[i] = release
	}
	return out
}

// BudgetAbsorption is the BA mechanism of Kellaris et al.: the publication
// half of the budget is divided uniformly over the w timestamps; a timestamp
// that skips publication (similar counts) lets the next publication absorb
// its unused budget. After a publication that absorbed k timestamps' budget,
// the next k timestamps are nullified (forced to approximate) to keep the
// w-event guarantee.
type BudgetAbsorption struct {
	cfg  WEventConfig
	wEps dp.Epsilon
}

// NewBudgetAbsorption validates the configuration and converts the budget.
func NewBudgetAbsorption(cfg WEventConfig) (*BudgetAbsorption, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	wEps, err := ConvertToWEvent(cfg.PatternEpsilon, cfg.W, maxPatternLen(cfg.Private))
	if err != nil {
		return nil, err
	}
	return &BudgetAbsorption{cfg: cfg, wEps: wEps}, nil
}

// Name implements core.Mechanism.
func (b *BudgetAbsorption) Name() string { return "ba" }

// TotalEpsilon implements core.Mechanism.
func (b *BudgetAbsorption) TotalEpsilon() dp.Epsilon { return b.cfg.PatternEpsilon }

// Run implements core.Mechanism.
func (b *BudgetAbsorption) Run(rng *rand.Rand, wins []core.IndicatorWindow) []map[event.Type]bool {
	types := sortedTypes(wins)
	out := make([]map[event.Type]bool, len(wins))

	epsDisPerTS := float64(b.wEps) / 2 / float64(b.cfg.W)
	epsPubPerTS := float64(b.wEps) / 2 / float64(b.cfg.W)

	last := make(map[event.Type]float64)
	absorbed := 0  // timestamps skipped since the last publication
	nullified := 0 // timestamps that must approximate after an absorbing publication

	for i, w := range wins {
		release := make(map[event.Type]bool, len(types))
		approx := func() {
			for _, t := range types {
				release[t] = indicatorFromCount(last[t])
			}
		}
		if nullified > 0 {
			nullified--
			absorbed++
			approx()
			out[i] = release
			continue
		}
		dis := 0.0
		for _, t := range types {
			dis += math.Abs(float64(w.Counts[t]) - last[t])
		}
		dis /= float64(len(types))
		if epsDisPerTS > 0 {
			dis += dp.Laplace(rng, 1/(float64(len(types))*epsDisPerTS))
		}

		// Absorbable budget: this timestamp's share plus every share
		// skipped since the previous publication (capped at w shares).
		shares := minInt(absorbed+1, b.cfg.W)
		pub := epsPubPerTS * float64(shares)
		if pub > 0 && dis > 1/pub {
			for _, t := range types {
				noisy := float64(w.Counts[t]) + dp.Laplace(rng, 1/pub)
				last[t] = noisy
				release[t] = indicatorFromCount(noisy)
			}
			// Nullify the timestamps whose budget was absorbed.
			nullified = shares - 1
			absorbed = 0
		} else {
			absorbed++
			approx()
		}
		out[i] = release
	}
	return out
}

// sortedTypes returns the union of types across all windows, sorted.
func sortedTypes(wins []core.IndicatorWindow) []event.Type {
	seen := make(map[event.Type]bool)
	var out []event.Type
	for _, w := range wins {
		for t := range w.Present {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
