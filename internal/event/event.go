// Package event defines the basic event model shared by every layer of the
// system: raw data tuples, extracted events, and the patterns composed from
// them. It mirrors Section III-A of the paper: a data stream SD = (d1, d2, …)
// yields an event stream SE = (e1, e2, …), and sequences of events form
// patterns P = seq(e1, …, em).
package event

import (
	"fmt"
	"slices"
)

// Type identifies a class of events ("enter-cell-42", "door-open", "e7").
// Two events with the same Type are instances of the same basic event.
type Type string

// Timestamp is a logical stream timestamp. The paper indexes streams by
// integer positions.
type Timestamp int64

// Event is a single extracted event in an event stream: which type of event
// happened, when, and on which data stream. That is all the paper's
// guarantee reads (Sec. III-A: a pattern is a sequence of event types), so
// it is all an event carries.
//
// An Event is a comparable value; WithSource returns a copy.
type Event struct {
	// Type is the event class.
	Type Type `json:"type"`
	// Time is the logical timestamp (position in the merged event stream).
	Time Timestamp `json:"time"`
	// Source identifies the originating data stream (e.g. a taxi id).
	Source string `json:"source,omitempty"`
}

// New constructs an event of the given type at the given logical time.
func New(t Type, ts Timestamp) Event {
	return Event{Type: t, Time: ts}
}

// WithSource returns a copy of e tagged with the originating stream id.
func (e Event) WithSource(src string) Event {
	e.Source = src
	return e
}

// String renders a compact description: type@time/source.
func (e Event) String() string {
	s := fmt.Sprintf("%s@%d", e.Type, e.Time)
	if e.Source != "" {
		s += "/" + e.Source
	}
	return s
}

// Before reports whether e precedes o in the merged event stream. Events are
// ordered by logical timestamp; ties are broken by source then type so that
// any merge of streams is deterministic (the paper notes same-timestamp
// events may be ordered arbitrarily; we pick a canonical order).
func (e Event) Before(o Event) bool {
	if e.Time != o.Time {
		return e.Time < o.Time
	}
	if e.Source != o.Source {
		return e.Source < o.Source
	}
	return e.Type < o.Type
}

// SortEvents sorts a slice of events into canonical stream order in place.
// Streams mostly arrive in order, so an O(n) sortedness check runs first;
// slices.SortFunc keeps the slow path allocation-free, where sort.Slice
// would allocate a reflect-based swapper per call.
func SortEvents(evs []Event) {
	sorted := true
	for i := 1; i < len(evs); i++ {
		if evs[i].Before(evs[i-1]) {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	slices.SortFunc(evs, func(a, b Event) int {
		if a.Before(b) {
			return -1
		}
		if b.Before(a) {
			return 1
		}
		return 0
	})
}

// TypesOf extracts the event types of a slice in order.
func TypesOf(evs []Event) []Type {
	out := make([]Type, len(evs))
	for i, e := range evs {
		out[i] = e.Type
	}
	return out
}
