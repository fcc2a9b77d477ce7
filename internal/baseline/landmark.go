package baseline

import (
	"fmt"
	"math/rand"

	"patterndp/internal/core"
	"patterndp/internal/dp"
	"patterndp/internal/event"
)

// LandmarkConfig configures the landmark-privacy baseline.
type LandmarkConfig struct {
	// PatternEpsilon is the pattern-level budget the mechanism is held to;
	// ConvertToLandmark turns it into the per-landmark budget.
	PatternEpsilon dp.Epsilon
	// Private identify which event types make a timestamp a landmark.
	Private []core.PatternType
	// RegularFraction scales the budget spent on non-landmark timestamps
	// relative to the per-landmark budget. Landmark privacy protects all
	// landmarks plus any one regular timestamp, so regular timestamps can
	// be perturbed much more lightly; 0 releases them exactly. Values in
	// [0, 1]. Default 0.
	RegularFraction float64
}

func (c LandmarkConfig) validate() error {
	if !c.PatternEpsilon.Valid() {
		return fmt.Errorf("baseline: invalid budget %v", c.PatternEpsilon)
	}
	if len(c.Private) == 0 {
		return fmt.Errorf("baseline: no private pattern types")
	}
	if c.RegularFraction < 0 || c.RegularFraction > 1 {
		return fmt.Errorf("baseline: regular fraction %v outside [0,1]", c.RegularFraction)
	}
	return nil
}

// Landmark is the landmark-privacy baseline (Katsomallos et al., CODASPY
// 2022): timestamps that carry privacy-significant data — here, windows
// containing elements of a private pattern — are landmarks and receive the
// privacy budget; other timestamps are only lightly perturbed, since the
// landmark guarantee covers all landmarks plus any single regular timestamp.
//
// The adaptive allocation of the cited paper spends the remaining budget
// evenly over the estimated remaining landmarks; the trusted engine knows
// the true landmark positions (it sees the raw stream), so the estimate here
// is exact. Like the w-event baselines, the mechanism perturbs the counts of
// every relevant event type at landmark timestamps — it distinguishes
// *when* to protect, not *what*, which is what separates it from the
// pattern-level PPMs.
type Landmark struct {
	cfg         LandmarkConfig
	landmarkEps dp.Epsilon
}

// NewLandmark validates the configuration and converts the budget.
func NewLandmark(cfg LandmarkConfig) (*Landmark, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	eps, err := ConvertToLandmark(cfg.PatternEpsilon, maxPatternLen(cfg.Private))
	if err != nil {
		return nil, err
	}
	return &Landmark{cfg: cfg, landmarkEps: eps}, nil
}

// Name implements core.Mechanism.
func (l *Landmark) Name() string { return "landmark" }

// TotalEpsilon implements core.Mechanism.
func (l *Landmark) TotalEpsilon() dp.Epsilon { return l.cfg.PatternEpsilon }

// isLandmark reports whether a window is a landmark: it contains at least one
// private-pattern element event.
func isLandmark(w core.IndicatorWindow, priv map[event.Type]bool) bool {
	for t, present := range w.Present {
		if present && priv[t] {
			return true
		}
	}
	return false
}

// Run implements core.Mechanism.
func (l *Landmark) Run(rng *rand.Rand, wins []core.IndicatorWindow) []map[event.Type]bool {
	priv := privateTypeSet(l.cfg.Private)
	out := make([]map[event.Type]bool, len(wins))
	landEps := float64(l.landmarkEps)
	regEps := landEps * l.cfg.RegularFraction
	for i, w := range wins {
		release := make(map[event.Type]bool, len(w.Present))
		landmark := isLandmark(w, priv)
		eps := regEps
		if landmark {
			eps = landEps
		}
		for _, t := range core.SortedTypes(w.Present) {
			c := float64(w.Counts[t])
			if eps > 0 {
				c += dp.Laplace(rng, 1/eps)
				release[t] = indicatorFromCount(c)
			} else if landmark {
				// A landmark with zero budget must not leak: release
				// a coin flip (the ε→0 limit of any DP release).
				release[t] = rng.Float64() < 0.5
			} else {
				release[t] = w.Present[t]
			}
		}
		out[i] = release
	}
	return out
}
