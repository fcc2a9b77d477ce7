package stream

import (
	"testing"
	"testing/quick"

	"patterndp/internal/event"
)

func TestFromSliceCollect(t *testing.T) {
	in := []int{1, 2, 3}
	got := Collect(FromSlice(in))
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("Collect = %v", got)
	}
}

func TestFromSliceEmpty(t *testing.T) {
	if got := Collect(FromSlice[int](nil)); got != nil {
		t.Errorf("empty stream Collect = %v, want nil", got)
	}
}

func TestFromFunc(t *testing.T) {
	done := make(chan struct{})
	defer close(done)
	i := 0
	s := FromFunc(done, func() (int, bool) {
		i++
		return i, i <= 4
	})
	got := Collect(s)
	if len(got) != 4 {
		t.Fatalf("got %v", got)
	}
}

func TestFromFuncCancel(t *testing.T) {
	done := make(chan struct{})
	s := FromFunc(done, func() (int, bool) { return 1, true })
	<-s
	close(done)
	// The goroutine should eventually exit; draining remaining buffered
	// sends must terminate.
	for range s {
	}
}

func TestMapFilterTake(t *testing.T) {
	done := make(chan struct{})
	defer close(done)
	s := FromSlice([]int{1, 2, 3, 4, 5, 6})
	doubled := Map(done, s, func(v int) int { return v * 2 })
	evens := Filter(done, doubled, func(v int) bool { return v%4 == 0 })
	got := Collect(Take(done, evens, 2))
	if len(got) != 2 || got[0] != 4 || got[1] != 8 {
		t.Errorf("pipeline = %v, want [4 8]", got)
	}
}

func TestCollectN(t *testing.T) {
	got := CollectN(FromSlice([]int{1, 2, 3}), 2)
	if len(got) != 2 {
		t.Errorf("CollectN = %v", got)
	}
	got = CollectN(FromSlice([]int{1}), 5)
	if len(got) != 1 {
		t.Errorf("CollectN beyond stream = %v", got)
	}
}

func TestFanOutDuplicates(t *testing.T) {
	done := make(chan struct{})
	defer close(done)
	outs := FanOut(done, FromSlice([]int{1, 2, 3}), 3)
	results := make([][]int, 3)
	ch := make(chan struct{})
	for i, o := range outs {
		go func(i int, o Stream[int]) {
			results[i] = Collect(o)
			ch <- struct{}{}
		}(i, o)
	}
	for range outs {
		<-ch
	}
	for i, r := range results {
		if len(r) != 3 || r[0] != 1 || r[2] != 3 {
			t.Errorf("branch %d = %v", i, r)
		}
	}
}

func TestTee(t *testing.T) {
	done := make(chan struct{})
	defer close(done)
	a, b := Tee(done, FromSlice([]int{7, 8}))
	var ra, rb []int
	doneCh := make(chan struct{})
	go func() { ra = Collect(a); doneCh <- struct{}{} }()
	go func() { rb = Collect(b); doneCh <- struct{}{} }()
	<-doneCh
	<-doneCh
	if len(ra) != 2 || len(rb) != 2 || ra[1] != 8 || rb[0] != 7 {
		t.Errorf("tee = %v / %v", ra, rb)
	}
}

func evs(times ...int64) []event.Event {
	out := make([]event.Event, len(times))
	for i, ts := range times {
		out[i] = event.New("e", event.Timestamp(ts))
	}
	return out
}

func TestMergeEventsOrdered(t *testing.T) {
	done := make(chan struct{})
	defer close(done)
	s1 := FromSlice([]event.Event{event.New("a", 1), event.New("a", 4)})
	s2 := FromSlice([]event.Event{event.New("b", 2), event.New("b", 3)})
	got := Collect(MergeEvents(done, s1, s2))
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
	done := make(chan struct{})
	defer close(done)
	s1 := FromSlice([]event.Event{event.New("z", 1).WithSource("s2")})
	s2 := FromSlice([]event.Event{event.New("a", 1).WithSource("s1")})
	got := Collect(MergeEvents(done, s1, s2))
	if got[0].Source != "s1" {
		t.Errorf("tie break: got %v first", got[0])
	}
}

func TestMergeEventsEmptyInputs(t *testing.T) {
	done := make(chan struct{})
	defer close(done)
	empty := FromSlice[event.Event](nil)
	s := FromSlice([]event.Event{event.New("a", 1)})
	got := Collect(MergeEvents(done, empty, s))
	if len(got) != 1 {
		t.Errorf("merge with empty = %v", got)
	}
	if got2 := Collect(MergeEvents(done)); got2 != nil {
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
	done := make(chan struct{})
	defer close(done)
	in := FromSlice(evs(0, 1, 5, 12, 13))
	got := Collect(Tumbling(done, in, 5))
	// Windows: [0,5) -> 2 events, [5,10) -> 1, [10,15) -> 2.
	if len(got) != 3 {
		t.Fatalf("windows = %d, want 3", len(got))
	}
	counts := []int{2, 1, 2}
	for i, w := range got {
		if len(w.Events) != counts[i] {
			t.Errorf("window %d has %d events, want %d", i, len(w.Events), counts[i])
		}
		if w.End-w.Start != 5 {
			t.Errorf("window %d width %d", i, w.End-w.Start)
		}
	}
}

func TestTumblingEmitsGapWindows(t *testing.T) {
	done := make(chan struct{})
	defer close(done)
	in := FromSlice(evs(0, 22))
	got := Collect(Tumbling(done, in, 10))
	// [0,10) has the first event; [10,20) is an empty gap; [20,30) has the second.
	if len(got) != 3 {
		t.Fatalf("windows = %d, want 3 (gap window must be emitted)", len(got))
	}
	if len(got[1].Events) != 0 {
		t.Errorf("gap window not empty: %v", got[1].Events)
	}
}

func TestTumblingPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for width <= 0")
		}
	}()
	done := make(chan struct{})
	defer close(done)
	Tumbling(done, FromSlice[event.Event](nil), 0)
}

func TestWindowSlice(t *testing.T) {
	ws := WindowSlice(evs(0, 3, 11), 5)
	if len(ws) != 3 {
		t.Fatalf("windows = %d, want 3", len(ws))
	}
	if len(ws[0].Events) != 2 || len(ws[1].Events) != 0 || len(ws[2].Events) != 1 {
		t.Errorf("window contents wrong: %v", ws)
	}
}

func TestWindowSliceEmpty(t *testing.T) {
	if ws := WindowSlice(nil, 5); ws != nil {
		t.Errorf("WindowSlice(nil) = %v", ws)
	}
}

func TestWindowContainsCountTypes(t *testing.T) {
	w := Window{Start: 0, End: 10, Events: []event.Event{
		event.New("a", 1), event.New("a", 2), event.New("b", 3),
	}}
	if !w.Contains("a") || w.Contains("z") {
		t.Error("Contains broken")
	}
	if w.Count("a") != 2 || w.Count("b") != 1 || w.Count("z") != 0 {
		t.Error("Count broken")
	}
	ts := w.Types()
	if len(ts) != 2 || !ts["a"] || !ts["b"] {
		t.Errorf("Types = %v", ts)
	}
}
