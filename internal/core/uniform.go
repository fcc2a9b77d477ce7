package core

import (
	"fmt"
	"math/rand"
	"slices"

	"patterndp/internal/dp"
	"patterndp/internal/event"
)

// UniformPPM is the uniform pattern-level PPM of Section V-A: the total
// budget ε of each private pattern type is split evenly across its m
// elements (Fig. 3), and each element's per-window existence indicator is
// passed through randomized response with p_i = 1/(1+e^{ε_i}).
//
// By Theorem 1 the released indicators satisfy pattern-level ε-DP for each
// configured private pattern type. Events that are not elements of any
// private pattern are released unperturbed — this is precisely the data
// quality advantage over stream-level PPMs.
//
// When an event type is an element of several private pattern types
// (overlapping patterns), the randomized responses compose independently,
// which only strengthens the protection (Section V-A, last paragraph).
type UniformPPM struct {
	flipTable
	private []PatternType
}

// NewUniformPPM configures the mechanism with a total per-pattern budget eps
// and one or more private pattern types.
func NewUniformPPM(eps dp.Epsilon, private ...PatternType) (*UniformPPM, error) {
	if !eps.Valid() {
		return nil, fmt.Errorf("core: invalid budget %v", eps)
	}
	if len(private) == 0 {
		return nil, fmt.Errorf("core: uniform PPM needs at least one private pattern type")
	}
	dists := make([]*dp.Distribution, len(private))
	for k, pt := range private {
		if pt.Len() == 0 {
			return nil, fmt.Errorf("core: private pattern type %q has no elements", pt.Name)
		}
		dist, err := dp.UniformDistribution(eps, pt.Len())
		if err != nil {
			return nil, err
		}
		dists[k] = dist
	}
	return &UniformPPM{flipTable: newFlipTable(eps, private, dists), private: slices.Clone(private)}, nil
}

// Name implements Mechanism.
func (u *UniformPPM) Name() string { return "uniform" }

// TotalEpsilon implements Mechanism: the pattern-level budget per private
// pattern type — eps, or the composed Σεᵢ of a split that rounds above it.
func (u *UniformPPM) TotalEpsilon() dp.Epsilon { return u.charge }

// RunInto implements ReleaseReuser, reusing the caller's release maps. The
// sort scratch is shared across the batch, but each window's types are
// sorted individually, so randomness is consumed in exactly PerturbWindow's
// order and seeded releases are unchanged. Only the bench ladder's
// core.perturb rung calls it: the serving engine perturbs dense rows from
// the flip lists instead.
func (u *UniformPPM) RunInto(rng *rand.Rand, wins []IndicatorWindow, released []map[event.Type]bool) []map[event.Type]bool {
	var types []event.Type
	if len(wins) > 0 {
		types = make([]event.Type, 0, len(wins[0].Present))
	}
	for i, w := range wins {
		types = sortedTypesInto(types, w.Present)
		rel := released[i]
		if rel == nil {
			rel = make(map[event.Type]bool, len(w.Present))
		}
		for _, t := range types {
			bit := w.Present[t]
			for _, p := range u.flips[t] {
				if rng.Float64() < p {
					bit = !bit
				}
			}
			rel[t] = bit
		}
		released[i] = rel
	}
	return released
}
