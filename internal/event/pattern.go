package event

import (
	"fmt"
	"slices"
	"strings"
)

// Pattern is a detected pattern instance: a temporally ordered sequence of
// events, P = seq(e1, e2, …, em) (Section III-A). Higher-level patterns are
// flattened into their constituent events, so any pattern is representable
// this way.
type Pattern struct {
	// Name labels the pattern type that produced this instance (the query).
	Name string
	// Events are the constituent events in temporal order.
	Events []Event
}

// NewPattern builds a pattern instance, sorting events into stream order.
func NewPattern(name string, evs ...Event) Pattern {
	cp := make([]Event, len(evs))
	copy(cp, evs)
	SortEvents(cp)
	return Pattern{Name: name, Events: cp}
}

// Len returns the number of constituent events (m in the paper).
func (p Pattern) Len() int { return len(p.Events) }

// Start returns the logical timestamp of the first constituent event.
// It returns 0 for an empty pattern.
func (p Pattern) Start() Timestamp {
	if len(p.Events) == 0 {
		return 0
	}
	return p.Events[0].Time
}

// End returns the logical timestamp of the last constituent event.
// It returns 0 for an empty pattern.
func (p Pattern) End() Timestamp {
	if len(p.Events) == 0 {
		return 0
	}
	return p.Events[len(p.Events)-1].Time
}

// Types returns the event types of the pattern elements in order.
func (p Pattern) Types() []Type { return TypesOf(p.Events) }

// Contains reports whether the pattern has an element equal to e.
func (p Pattern) Contains(e Event) bool { return slices.Contains(p.Events, e) }

// Equal reports whether two pattern instances have the same name and the
// same element events.
func (p Pattern) Equal(o Pattern) bool {
	return p.Name == o.Name && slices.Equal(p.Events, o.Events)
}

// Overlaps reports whether two pattern instances share at least one element
// event — the paper's definition of overlapping patterns.
func (p Pattern) Overlaps(o Pattern) bool {
	for _, e := range p.Events {
		if o.Contains(e) {
			return true
		}
	}
	return false
}

// InPatternNeighbor reports whether p and o are in-pattern neighbors
// (Definition 1): same length, and they differ in exactly one element.
func (p Pattern) InPatternNeighbor(o Pattern) bool {
	if len(p.Events) != len(o.Events) || len(p.Events) == 0 {
		return false
	}
	diff := 0
	for i := range p.Events {
		if p.Events[i] != o.Events[i] {
			diff++
		}
	}
	return diff == 1
}

// String renders the pattern as name(seq e1, e2, …).
func (p Pattern) String() string {
	parts := make([]string, len(p.Events))
	for i, e := range p.Events {
		parts[i] = e.String()
	}
	return fmt.Sprintf("%s(seq %s)", p.Name, strings.Join(parts, ", "))
}
