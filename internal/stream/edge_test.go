package stream

import (
	"testing"

	"patterndp/internal/event"
)

// Edge-case coverage for the windowing and merge substrate: empty inputs,
// events exactly on window boundaries, negative-time alignment, and
// out-of-order feeds recovered through the canonical merge.

func TestAlignDown(t *testing.T) {
	cases := []struct {
		t, width, want event.Timestamp
	}{
		{0, 10, 0},
		{9, 10, 0},
		{10, 10, 10},
		{11, 10, 10},
		{-1, 10, -10},
		{-10, 10, -10},
		{-11, 10, -20},
		{25, 7, 21},
	}
	for _, c := range cases {
		if got := AlignDown(c.t, c.width); got != c.want {
			t.Errorf("AlignDown(%d, %d) = %d, want %d", c.t, c.width, got, c.want)
		}
	}
}

func TestAlignDownPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for width 0")
		}
	}()
	AlignDown(5, 0)
}

func TestTumblingEmptyInput(t *testing.T) {
	if ws := WindowSlice([]event.Event{}, 10); len(ws) != 0 {
		t.Errorf("windows from empty input = %+v", ws)
	}
}

func TestTumblingSingleEventOnBoundary(t *testing.T) {
	ws := WindowSlice([]event.Event{event.New("a", 20)}, 10)
	if len(ws) != 1 {
		t.Fatalf("windows = %d, want 1", len(ws))
	}
	if ws[0].Start != 20 || ws[0].End != 30 || size(ws[0]) != 1 {
		t.Errorf("window = %+v, want [20,30) with one event", ws[0])
	}
}

func TestWindowSliceSingleEventOnBoundary(t *testing.T) {
	// A lone event whose timestamp is an exact window multiple must land
	// in the window starting at its own timestamp (half-open intervals).
	ws := WindowSlice([]event.Event{event.New("a", 10)}, 10)
	if len(ws) != 1 || ws[0].Start != 10 || ws[0].End != 20 || size(ws[0]) != 1 {
		t.Fatalf("windows = %+v, want one [10,20) with one event", ws)
	}
	// An event on the boundary between two populated windows belongs to
	// the later one.
	ws = WindowSlice([]event.Event{event.New("a", 9), event.New("b", 10)}, 10)
	if len(ws) != 2 {
		t.Fatalf("windows = %d, want 2", len(ws))
	}
	if size(ws[0]) != 1 || ws[0].Count("a") != 1 {
		t.Errorf("window 0 = %+v", ws[0])
	}
	if size(ws[1]) != 1 || ws[1].Count("b") != 1 {
		t.Errorf("window 1 = %+v", ws[1])
	}
}

func TestWindowSliceNegativeStart(t *testing.T) {
	// Negative first timestamps must align down, not toward zero.
	ws := WindowSlice([]event.Event{event.New("a", -5), event.New("b", 5)}, 10)
	if len(ws) != 2 || ws[0].Start != -10 || ws[0].End != 0 {
		t.Fatalf("windows = %+v, want [-10,0) then [0,10)", ws)
	}
	if size(ws[0]) != 1 || size(ws[1]) != 1 {
		t.Errorf("event assignment = %+v", ws)
	}
}

func TestMergeRecoversOutOfOrderSources(t *testing.T) {
	// Each source is in order but the interleaving is adversarial; the
	// merge must restore canonical order so WindowSlice can cut cleanly.
	// Equal times break by Source, then Type, whichever input holds them.
	a := []event.Event{
		event.New("a", 2).WithSource("s1"),
		event.New("z", 11).WithSource("s1"),
		event.New("a", 19).WithSource("s1"),
	}
	b := []event.Event{
		event.New("b", 1).WithSource("s2"),
		event.New("b", 11).WithSource("s0"),
		event.New("a", 11).WithSource("s1"),
		event.New("b", 30).WithSource("s2"),
	}
	merged := MergeSortedSlices(a, b)
	if len(merged) != 7 {
		t.Fatalf("merged = %d events, want 7", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].Before(merged[i-1]) {
			t.Fatalf("merged not ordered at %d: %v after %v", i, merged[i], merged[i-1])
		}
	}
	ties := merged[2:5]
	if ties[0].Source != "s0" || ties[1].Type != "a" || ties[2].Type != "z" {
		t.Errorf("tie break at time 11 = %v, want s0/b, s1/a, s1/z", ties)
	}
	ws := WindowSlice(merged, 10)
	if len(ws) != 4 {
		t.Fatalf("windows = %d, want 4", len(ws))
	}
	wantCounts := []int{2, 4, 0, 1}
	for i, want := range wantCounts {
		if n := size(ws[i]); n != want {
			t.Errorf("window %d holds %d events, want %d", i, n, want)
		}
	}
}

func TestMergeSortedSlicesEmptyAndSingle(t *testing.T) {
	if out := MergeSortedSlices(); len(out) != 0 {
		t.Errorf("merge of nothing = %v", out)
	}
	if out := MergeSortedSlices(nil, nil); len(out) != 0 {
		t.Errorf("merge of empties = %v", out)
	}
	one := []event.Event{event.New("a", 1)}
	out := MergeSortedSlices(nil, one, nil)
	if len(out) != 1 || out[0].Type != "a" {
		t.Errorf("merge with empties = %v", out)
	}
}
