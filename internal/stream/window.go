// Package stream holds the windows queries are answered over: a Window is its
// interval and its per-type TypeCounts tally, never its events, however it
// was cut. It also holds tumbling-window alignment (AlignDown, WindowSlice),
// the mergeable pane tallies sliding windows are assembled from, and the
// canonical merge of sorted event streams (the paper's event stream SE built
// from several data streams).
package stream

import (
	"patterndp/internal/event"
)

// TypeCount is one entry of a window's type-occurrence tally.
type TypeCount struct {
	// Type is the tallied event type.
	Type event.Type
	// N is how often it occurs in the window.
	N int
}

// TypeCounts is a compact per-type occurrence tally, ordered by first
// appearance. Windows hold a handful of distinct types, so a linear scan
// beats a hash map on the serving path — no hashing, and the whole tally is
// one small allocation.
type TypeCounts []TypeCount

// Count returns the tallied occurrences of t (0 when absent).
func (tc TypeCounts) Count(t event.Type) int {
	for i := range tc {
		if tc[i].Type == t {
			return tc[i].N
		}
	}
	return 0
}

// Add increments t's tally, appending a new entry on first occurrence, and
// returns the updated tally.
func (tc TypeCounts) Add(t event.Type) TypeCounts {
	for i := range tc {
		if tc[i].Type == t {
			tc[i].N++
			return tc
		}
	}
	return append(tc, TypeCount{Type: t, N: 1})
}

// Window is one window cut from an event stream: the half-open logical-time
// interval [Start, End) it covers and the per-type tally of the events inside
// it. A nil tally is an empty window.
type Window struct {
	// Start is the inclusive start of the covered interval.
	Start event.Timestamp
	// End is the exclusive end of the covered interval.
	End event.Timestamp
	// TypeCounts is the per-type occurrence tally of the window.
	TypeCounts TypeCounts
}

// Count returns the number of events of type t inside the window. w-event
// baselines publish noisy versions of these counts.
func (w Window) Count(t event.Type) int { return w.TypeCounts.Count(t) }

// AlignDown returns the largest multiple of width that is <= t: the start of
// the width-wide tumbling window containing t. It is correct for negative
// timestamps too (Go's integer division truncates toward zero, so naive
// division would align negative times up instead of down).
func AlignDown(t, width event.Timestamp) event.Timestamp {
	if width <= 0 {
		panic("stream: alignment width must be positive")
	}
	start := (t / width) * width
	if t < 0 && t%width != 0 {
		start -= width
	}
	return start
}

// WindowSlice batches a slice of time-ordered events into consecutive
// non-overlapping (tumbling) windows of the given logical-time width, each
// event tallied in the window whose interval contains its timestamp. It emits
// empty windows for gaps so that window indices align with time.
func WindowSlice(evs []event.Event, width event.Timestamp) []Window {
	if width <= 0 {
		panic("stream: window width must be positive")
	}
	if len(evs) == 0 {
		return nil
	}
	first := AlignDown(evs[0].Time, width)
	last := evs[len(evs)-1].Time
	var out []Window
	cur := Window{Start: first, End: first + width}
	i := 0
	for cur.Start <= last {
		for i < len(evs) && evs[i].Time < cur.End {
			cur.TypeCounts = cur.TypeCounts.Add(evs[i].Type)
			i++
		}
		out = append(out, cur)
		cur = Window{Start: cur.End, End: cur.End + width}
	}
	return out
}
