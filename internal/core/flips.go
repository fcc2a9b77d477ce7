package core

import (
	"math/rand"

	"patterndp/internal/dp"
	"patterndp/internal/event"
)

// flipTable is the randomized-response table the pattern-level PPMs share:
// per event type, the flip probability of each private pattern that claims
// it, in registration order. A window's indicator for the type passes through
// those flips in that order; responses compose independently, and a type no
// pattern claims is released unperturbed.
type flipTable struct {
	flips map[event.Type][]float64
	// charge is what one release costs: the configured ε, or the largest
	// pattern's Σεᵢ (Theorem 1's composed budget) where a float split sums
	// to a few ulps more.
	charge dp.Epsilon
}

// newFlipTable builds the table from each private pattern's per-element
// allocation (dists is parallel to private) of the configured budget eps.
// Duplicate element types within or across patterns contribute one
// independent flip each.
func newFlipTable(eps dp.Epsilon, private []PatternType, dists []*dp.Distribution) flipTable {
	flips := make(map[event.Type][]float64)
	charge := eps
	for k, pt := range private {
		probs := dists[k].FlipProbs()
		for i, t := range pt.Elements {
			flips[t] = append(flips[t], probs[i])
		}
		charge = max(charge, dists[k].Total())
	}
	return flipTable{flips: flips, charge: charge}
}

// flipLister is implemented by mechanisms whose whole release is a flipTable
// applied to every window independently, types in sorted order: UniformPPM,
// AdaptivePPM and Identity (no flips). The serving engine resolves the lists
// to type-table positions once per epoch and perturbs dense indicator rows
// with exactly the draws Run would make.
type flipLister interface {
	flipLists() map[event.Type][]float64
}

func (ft *flipTable) flipLists() map[event.Type][]float64 { return ft.flips }

// FlipProb returns the effective flip probability applied to one event
// type's indicator: the composition of the independent randomized responses
// of every private pattern claiming the type. Composing two flips with
// probabilities p and q flips the bit with probability p(1−q) + q(1−p).
func (ft *flipTable) FlipProb(t event.Type) float64 {
	eff := 0.0
	for _, p := range ft.flips[t] {
		eff = eff*(1-p) + p*(1-eff)
	}
	return eff
}

// FlipProbs returns the effective per-type flip probabilities for all
// perturbed types.
func (ft *flipTable) FlipProbs() map[event.Type]float64 {
	out := make(map[event.Type]float64, len(ft.flips))
	for t := range ft.flips {
		out[t] = ft.FlipProb(t)
	}
	return out
}

// PerturbWindow perturbs one window's indicators. Types are processed in
// sorted order so a seeded rng yields reproducible releases.
func (ft *flipTable) PerturbWindow(rng *rand.Rand, present map[event.Type]bool) map[event.Type]bool {
	out := make(map[event.Type]bool, len(present))
	for _, t := range SortedTypes(present) {
		bit := present[t]
		for _, p := range ft.flips[t] {
			if rng.Float64() < p {
				bit = !bit
			}
		}
		out[t] = bit
	}
	return out
}

// Run implements Mechanism: windows are perturbed independently.
func (ft *flipTable) Run(rng *rand.Rand, wins []IndicatorWindow) []map[event.Type]bool {
	out := make([]map[event.Type]bool, len(wins))
	for i, w := range wins {
		out[i] = ft.PerturbWindow(rng, w.Present)
	}
	return out
}
