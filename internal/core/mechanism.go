package core

import (
	"math/rand"
	"slices"

	"patterndp/internal/dp"
	"patterndp/internal/event"
	"patterndp/internal/stream"
)

// IndicatorWindow is the per-window view every mechanism operates on: which
// event types occurred in the window (the existence indicators I(e_i)) and
// how often (for count-based baselines).
type IndicatorWindow struct {
	// Index is the position of the window in the stream.
	Index int
	// Present maps each relevant event type to its existence indicator.
	Present map[event.Type]bool
	// Counts maps each relevant event type to its occurrence count.
	Counts map[event.Type]int
}

// NewIndicatorWindow extracts indicators and counts for the given types from
// a concrete window.
func NewIndicatorWindow(idx int, w stream.Window, types []event.Type) IndicatorWindow {
	iw := IndicatorWindow{
		Index:   idx,
		Present: make(map[event.Type]bool, len(types)),
		Counts:  make(map[event.Type]int, len(types)),
	}
	for _, t := range types {
		c := w.Count(t)
		iw.Counts[t] = c
		iw.Present[t] = c > 0
	}
	return iw
}

// IndicatorWindows converts a window slice into indicator windows over the
// union of the given types.
func IndicatorWindows(ws []stream.Window, types []event.Type) []IndicatorWindow {
	out := make([]IndicatorWindow, len(ws))
	for i, w := range ws {
		out[i] = NewIndicatorWindow(i, w, types)
	}
	return out
}

// SortedTypes returns the keys of a presence map in sorted order, so
// mechanisms consume randomness in a deterministic order regardless of map
// iteration.
func SortedTypes(present map[event.Type]bool) []event.Type {
	return sortedTypesInto(nil, present)
}

// sortedTypesInto is SortedTypes reusing dst's capacity, for mechanisms that
// sort the same key set once per window of a batch. slices.Sort keeps it
// allocation-free where sort.Slice would allocate a swapper per call.
func sortedTypesInto(dst []event.Type, present map[event.Type]bool) []event.Type {
	dst = dst[:0]
	for t := range present {
		dst = append(dst, t)
	}
	slices.Sort(dst)
	return dst
}

// ClonePresent returns a copy of the presence map.
func (iw IndicatorWindow) ClonePresent() map[event.Type]bool {
	out := make(map[event.Type]bool, len(iw.Present))
	for k, v := range iw.Present {
		out[k] = v
	}
	return out
}

// Mechanism is a privacy-preserving mechanism that perturbs the existence
// indicators of a stream of windows. Implementations may be stateful across
// the window sequence (the w-event baselines are), so the whole sequence is
// presented at once; outputs align with inputs by index.
type Mechanism interface {
	// Name identifies the mechanism in experiment output.
	Name() string
	// TotalEpsilon is the pattern-level privacy budget the mechanism
	// guarantees for the private pattern(s) it was configured with
	// (after conversion, for non-pattern-level baselines).
	TotalEpsilon() dp.Epsilon
	// Run perturbs the window sequence and returns the released
	// indicators for each window. Implementations must neither retain the
	// input windows or rng nor alias the input maps into the release maps.
	Run(rng *rand.Rand, wins []IndicatorWindow) []map[event.Type]bool
}

// ReleaseReuser is an optional Mechanism extension: RunInto behaves exactly
// like Run — same semantics, same randomness consumption — but writes each
// window's released indicators into the corresponding pre-cleared map of
// released (guaranteed to have len(released) == len(wins)) instead of
// allocating fresh maps. The serving engine does not use it — it serves dense
// rows — so its only caller is the bench ladder's core.perturb rung; once
// that rung is re-pointed, the extension and UniformPPM.RunInto can be
// deleted.
type ReleaseReuser interface {
	RunInto(rng *rand.Rand, wins []IndicatorWindow, released []map[event.Type]bool) []map[event.Type]bool
}

// Identity is the no-op mechanism: it releases true indicators unchanged.
// It provides the Qord reference point of Equation (4) and is useful as a
// control in experiments.
type Identity struct{}

// Name implements Mechanism.
func (Identity) Name() string { return "identity" }

// TotalEpsilon implements Mechanism; the identity provides no privacy.
func (Identity) TotalEpsilon() dp.Epsilon { return dp.Epsilon(0) }

// flipLists is the empty flip table: the engine serves Identity over dense
// rows and draws nothing for it.
func (Identity) flipLists() map[event.Type][]float64 { return nil }

// Run implements Mechanism.
func (Identity) Run(_ *rand.Rand, wins []IndicatorWindow) []map[event.Type]bool {
	out := make([]map[event.Type]bool, len(wins))
	for i, w := range wins {
		out[i] = w.ClonePresent()
	}
	return out
}
