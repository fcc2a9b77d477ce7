package baseline

import (
	"math/rand"

	"patterndp/internal/core"
	"patterndp/internal/dp"
	"patterndp/internal/event"
)

// The two strawman w-event mechanisms of Kellaris et al., included for
// completeness of the baseline family: Uniform spends ε/w at every
// timestamp; Sample spends the whole budget on every w-th timestamp and
// approximates in between. BD and BA were designed to beat both.

// WEventUniform publishes at every timestamp with budget ε_w / w.
type WEventUniform struct {
	cfg  WEventConfig
	wEps dp.Epsilon
}

// NewWEventUniform validates the configuration and converts the budget.
func NewWEventUniform(cfg WEventConfig) (*WEventUniform, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	wEps, err := ConvertToWEvent(cfg.PatternEpsilon, cfg.W, maxPatternLen(cfg.Private))
	if err != nil {
		return nil, err
	}
	return &WEventUniform{cfg: cfg, wEps: wEps}, nil
}

// Name implements core.Mechanism.
func (u *WEventUniform) Name() string { return "wevent-uniform" }

// TotalEpsilon implements core.Mechanism.
func (u *WEventUniform) TotalEpsilon() dp.Epsilon { return u.cfg.PatternEpsilon }

// Run implements core.Mechanism.
func (u *WEventUniform) Run(rng *rand.Rand, wins []core.IndicatorWindow) []map[event.Type]bool {
	types := sortedTypes(wins)
	perTS := float64(u.wEps) / float64(u.cfg.W)
	out := make([]map[event.Type]bool, len(wins))
	for i, w := range wins {
		release := make(map[event.Type]bool, len(types))
		for _, t := range types {
			noisy := float64(w.Counts[t])
			if perTS > 0 {
				noisy += dp.Laplace(rng, 1/perTS)
			} else {
				// Zero budget: release a coin flip, the ε→0 limit.
				if rng.Float64() < 0.5 {
					noisy = 1
				} else {
					noisy = 0
				}
			}
			release[t] = indicatorFromCount(noisy)
		}
		out[i] = release
	}
	return out
}

// WEventSample publishes every w-th timestamp with the full budget ε_w and
// repeats the last release in between.
type WEventSample struct {
	cfg  WEventConfig
	wEps dp.Epsilon
}

// NewWEventSample validates the configuration and converts the budget.
func NewWEventSample(cfg WEventConfig) (*WEventSample, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	wEps, err := ConvertToWEvent(cfg.PatternEpsilon, cfg.W, maxPatternLen(cfg.Private))
	if err != nil {
		return nil, err
	}
	return &WEventSample{cfg: cfg, wEps: wEps}, nil
}

// Name implements core.Mechanism.
func (s *WEventSample) Name() string { return "wevent-sample" }

// TotalEpsilon implements core.Mechanism.
func (s *WEventSample) TotalEpsilon() dp.Epsilon { return s.cfg.PatternEpsilon }

// Run implements core.Mechanism.
func (s *WEventSample) Run(rng *rand.Rand, wins []core.IndicatorWindow) []map[event.Type]bool {
	types := sortedTypes(wins)
	eps := float64(s.wEps)
	out := make([]map[event.Type]bool, len(wins))
	last := make(map[event.Type]bool, len(types))
	for i, w := range wins {
		release := make(map[event.Type]bool, len(types))
		if i%s.cfg.W == 0 && eps > 0 {
			for _, t := range types {
				noisy := float64(w.Counts[t]) + dp.Laplace(rng, 1/eps)
				release[t] = indicatorFromCount(noisy)
				last[t] = release[t]
			}
		} else {
			for _, t := range types {
				release[t] = last[t]
			}
		}
		out[i] = release
	}
	return out
}
