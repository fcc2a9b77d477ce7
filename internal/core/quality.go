package core

import (
	"maps"
	"math/rand"
	"slices"

	"patterndp/internal/cep"
	"patterndp/internal/event"
	"patterndp/internal/metrics"
)

// maxExactTypes bounds the exhaustive enumeration in DetectionProbability;
// expressions touching more perturbed types fall back to sampling.
const maxExactTypes = 12

// DetectionProbability computes the probability that expr evaluates true
// over released indicators, given the true indicators and independent
// per-type flip probabilities. Types with no entry in flip are released
// deterministically.
//
// The computation enumerates all assignments of the perturbed types that
// expr references (exact for up to maxExactTypes such types) and therefore
// handles arbitrary expressions, including types that occur several times.
// Beyond the bound it estimates by sampling with rng, which must then be
// non-nil: a nil rng panics rather than fall back to a hidden seed. It is the
// one-window, one-target case of the model ExpectedQuality scores with.
func DetectionProbability(expr cep.Expr, truth map[event.Type]bool, flip map[event.Type]float64, rng *rand.Rand) float64 {
	m := newQualityModel([]IndicatorWindow{{Present: truth}}, []cep.Expr{expr}, slices.Collect(maps.Keys(flip)))
	p := m.flipVector(flip)
	m.refreshAll(p)
	// One window, one target: the probability, weighted by a window count
	// of exactly 1, lands in TP or FP by the ground truth, and the other
	// stays exactly zero.
	c := m.confusion(p, rng)
	return c.TP + c.FP
}

// ExpectedConfusion computes the expected confusion counts of answering the
// target expressions over released indicators for every window, relative to
// the ground truth computed on the unperturbed indicators.
//
// The returned values are expectations: E[TP] = Σ P(detect) over truly
// positive windows, and so on. They are real-valued, so a float variant of
// the confusion matrix is used.
type ExpectedConfusion struct {
	TP, FP, FN, TN float64
}

// add counts n windows whose ground truth is truth, each detected with
// probability pDetect.
func (c *ExpectedConfusion) add(truth bool, n, pDetect float64) {
	if truth {
		c.TP += n * pDetect
		c.FN += n * (1 - pDetect)
	} else {
		c.FP += n * pDetect
		c.TN += n * (1 - pDetect)
	}
}

// Precision returns E[TP]/(E[TP]+E[FP]) — the ratio-of-expectations
// estimate of precision (exact as window count grows).
func (c ExpectedConfusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		if c.FN == 0 {
			return 1
		}
		return 0
	}
	return c.TP / (c.TP + c.FP)
}

// Recall returns E[TP]/(E[TP]+E[FN]).
func (c ExpectedConfusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		if c.FP == 0 {
			return 1
		}
		return 0
	}
	return c.TP / (c.TP + c.FN)
}

// Q returns α·Prec + (1−α)·Rec.
func (c ExpectedConfusion) Q(alpha float64) float64 {
	return alpha*c.Precision() + (1-alpha)*c.Recall()
}

// ExpectedQuality computes the expected data quality Q = α·Prec + (1−α)·Rec
// of answering the target expressions under independent per-type flips, over
// a set of historical windows. This is the analytic oracle Algorithm 1 uses
// to score candidate budget distributions, replacing repeated noisy
// simulation with an exact expectation (a deliberate design choice — see
// DESIGN.md).
//
// The expectation is summed per distinct truth class of each target's own
// types, weighted by the class's window count, so it may differ from adding
// window by window in the last bits (within 1e-12 relative).
//
// rng is read only for a target that references more than maxExactTypes
// perturbed types (see DetectionProbability) and may be nil otherwise; such a
// target with a nil rng panics.
func ExpectedQuality(wins []IndicatorWindow, targets []cep.Expr, flip map[event.Type]float64, alpha float64, rng *rand.Rand) float64 {
	m := newQualityModel(wins, targets, slices.Collect(maps.Keys(flip)))
	p := m.flipVector(flip)
	m.refreshAll(p)
	return m.confusion(p, rng).Q(alpha)
}

// MeasuredQuality evaluates the realized quality of released indicator maps
// against ground truth, answering every target expression per window. This
// is the measurement used in experiments (Section VI): truth from the clean
// indicators, reports from the released ones.
func MeasuredQuality(wins []IndicatorWindow, released []map[event.Type]bool, targets []cep.Expr, alpha float64) (float64, metrics.Confusion) {
	var c metrics.Confusion
	for i, w := range wins {
		for _, target := range targets {
			truth := cep.EvalIndicators(target, w.Present)
			reported := cep.EvalIndicators(target, released[i])
			c.Add(truth, reported)
		}
	}
	return c.Q(alpha), c
}
