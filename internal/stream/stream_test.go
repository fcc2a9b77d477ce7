package stream

import (
	"testing"
	"testing/quick"

	"patterndp/internal/event"
)

func evs(times ...int64) []event.Event {
	out := make([]event.Event, len(times))
	for i, ts := range times {
		out[i] = event.New("e", event.Timestamp(ts))
	}
	return out
}

func TestMergeEventsOrdered(t *testing.T) {
	got := MergeSortedSlices(
		[]event.Event{event.New("a", 1), event.New("a", 4)},
		[]event.Event{event.New("b", 2), event.New("b", 3)},
	)
	times := []event.Timestamp{1, 2, 3, 4}
	if len(got) != 4 {
		t.Fatalf("merged %d events", len(got))
	}
	for i, e := range got {
		if e.Time != times[i] {
			t.Errorf("pos %d time %d, want %d", i, e.Time, times[i])
		}
	}
}

func TestMergeEventsTieBreak(t *testing.T) {
	// Equal times order by Source whichever input holds the event.
	got := MergeSortedSlices(
		[]event.Event{event.New("z", 1).WithSource("s2")},
		[]event.Event{event.New("a", 1).WithSource("s1")},
	)
	if len(got) != 2 || got[0].Source != "s1" {
		t.Errorf("tie break: got %v", got)
	}
}

func TestMergeEventsEmptyInputs(t *testing.T) {
	got := MergeSortedSlices(nil, []event.Event{event.New("a", 1)})
	if len(got) != 1 {
		t.Errorf("merge with empty = %v", got)
	}
	if got2 := MergeSortedSlices(); len(got2) != 0 {
		t.Errorf("merge of nothing = %v", got2)
	}
}

func TestMergeSortedSlices(t *testing.T) {
	a := []event.Event{event.New("a", 1), event.New("a", 5)}
	b := []event.Event{event.New("b", 2), event.New("b", 6)}
	got := MergeSortedSlices(a, b)
	if len(got) != 4 || got[0].Time != 1 || got[3].Time != 6 {
		t.Errorf("merged = %v", got)
	}
}

func TestMergeSortedSlicesProperty(t *testing.T) {
	f := func(a, b []int8) bool {
		mk := func(xs []int8, src string) []event.Event {
			out := make([]event.Event, len(xs))
			for i, x := range xs {
				out[i] = event.New("e", event.Timestamp(x)).WithSource(src)
			}
			event.SortEvents(out)
			return out
		}
		m := MergeSortedSlices(mk(a, "a"), mk(b, "b"))
		if len(m) != len(a)+len(b) {
			return false
		}
		for i := 1; i < len(m); i++ {
			if m[i].Before(m[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTumblingWindows(t *testing.T) {
	got := WindowSlice(evs(0, 1, 5, 12, 13), 5)
	// Windows: [0,5) -> 2 events, [5,10) -> 1, [10,15) -> 2.
	if len(got) != 3 {
		t.Fatalf("windows = %d, want 3", len(got))
	}
	counts := []int{2, 1, 2}
	for i, w := range got {
		if n := size(w); n != counts[i] {
			t.Errorf("window %d has %d events, want %d", i, n, counts[i])
		}
		if w.End-w.Start != 5 {
			t.Errorf("window %d width %d", i, w.End-w.Start)
		}
	}
}

func TestTumblingEmitsGapWindows(t *testing.T) {
	got := WindowSlice(evs(0, 22), 10)
	// [0,10) has the first event; [10,20) is an empty gap; [20,30) has the second.
	if len(got) != 3 {
		t.Fatalf("windows = %d, want 3 (gap window must be emitted)", len(got))
	}
	if got[1].TypeCounts != nil {
		t.Errorf("gap window not empty: %v", got[1].TypeCounts)
	}
}

func TestWindowSlice(t *testing.T) {
	ws := WindowSlice(evs(0, 3, 11), 5)
	if len(ws) != 3 {
		t.Fatalf("windows = %d, want 3", len(ws))
	}
	if size(ws[0]) != 2 || size(ws[1]) != 0 || size(ws[2]) != 1 {
		t.Errorf("window contents wrong: %v", ws)
	}
}

func TestWindowSliceEmpty(t *testing.T) {
	if ws := WindowSlice(nil, 5); ws != nil {
		t.Errorf("WindowSlice(nil) = %v", ws)
	}
}

func TestWindowSlicePanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for width <= 0")
		}
	}()
	WindowSlice(evs(1), 0)
}

// size is the number of events a window tallies.
func size(w Window) int {
	n := 0
	for _, c := range w.TypeCounts {
		n += c.N
	}
	return n
}

func TestWindowCount(t *testing.T) {
	w := WindowSlice([]event.Event{event.New("a", 1), event.New("a", 2), event.New("b", 3)}, 10)[0]
	if w.Count("a") != 2 || w.Count("b") != 1 || w.Count("z") != 0 {
		t.Errorf("Count broken: %v", w.TypeCounts)
	}
	if (Window{}).Count("a") != 0 {
		t.Error("an empty window counts events")
	}
}
