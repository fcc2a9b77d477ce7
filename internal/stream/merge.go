package stream

import (
	"patterndp/internal/event"
)

// MergeSortedSlices merges pre-sorted event slices into one canonical slice,
// ordered by (Time, Source, Type). This realizes the paper's construction of
// one event stream SE from the event extractions of several data streams;
// dataset builders use it.
func MergeSortedSlices(slices ...[]event.Event) []event.Event {
	total := 0
	for _, s := range slices {
		total += len(s)
	}
	out := make([]event.Event, 0, total)
	idx := make([]int, len(slices))
	for len(out) < total {
		best := -1
		for i, s := range slices {
			if idx[i] >= len(s) {
				continue
			}
			if best == -1 || s[idx[i]].Before(slices[best][idx[best]]) {
				best = i
			}
		}
		out = append(out, slices[best][idx[best]])
		idx[best]++
	}
	return out
}
