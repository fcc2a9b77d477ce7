package runtime

import (
	"testing"

	"patterndp/internal/event"
	"patterndp/internal/stream"
)

func pushAll(t *testing.T, w *Windower, evs ...event.Event) []stream.Window {
	t.Helper()
	var out []stream.Window
	for _, e := range evs {
		ws, _ := w.Push(e)
		out = append(out, ws...)
	}
	return out
}

// checkTally asserts a cut window against the batch cut of the events it
// should hold (one stream.WindowSlice window): same interval and a tally with
// exactly the batch window's per-type counts — nil when it is empty.
func checkTally(t *testing.T, got, want stream.Window) {
	t.Helper()
	if got.Start != want.Start || got.End != want.End {
		t.Errorf("window [%d,%d), want [%d,%d)", got.Start, got.End, want.Start, want.End)
	}
	if want.TypeCounts == nil && got.TypeCounts != nil {
		t.Errorf("window [%d,%d): empty window carries TypeCounts %v", got.Start, got.End, got.TypeCounts)
	}
	if len(got.TypeCounts) != len(want.TypeCounts) {
		t.Errorf("window [%d,%d): TypeCounts %v, want %v", got.Start, got.End, got.TypeCounts, want.TypeCounts)
	}
	for _, c := range want.TypeCounts {
		if got.Count(c.Type) != c.N {
			t.Errorf("window [%d,%d): Count(%s) = %d, want %d", got.Start, got.End, c.Type, got.Count(c.Type), c.N)
		}
	}
}

// checkTallies asserts a run of cut windows against stream.WindowSlice over
// the accepted events, given in any order.
func checkTallies(t *testing.T, got []stream.Window, width event.Timestamp, accepted ...event.Event) {
	t.Helper()
	event.SortEvents(accepted)
	want := stream.WindowSlice(accepted, width)
	if len(got) != len(want) {
		t.Fatalf("windows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		checkTally(t, got[i], want[i])
	}
}

func TestWindowerMatchesWindowSlice(t *testing.T) {
	// On an in-order feed the incremental windower must agree exactly with
	// the batch WindowSlice cut (including empty gap windows).
	evs := []event.Event{
		event.New("a", 1), event.New("b", 3), event.New("a", 12),
		event.New("c", 37), event.New("a", 41),
	}
	w := NewSlidingWindower(10, 10, DropLate, 0, 0)
	got := pushAll(t, w, evs...)
	got = append(got, w.FlushInto(nil)...)
	checkTallies(t, got, 10, evs...)
}

func TestWindowerDropLate(t *testing.T) {
	w := NewSlidingWindower(10, 10, DropLate, 0, 0)
	// Event at 12 closes [0,10); the straggler at 5 must be dropped.
	closed := pushAll(t, w, event.New("a", 1), event.New("b", 12))
	ws, res := w.Push(event.New("late", 5))
	if res != PushLate || len(ws) != 0 {
		t.Errorf("late push = (%v, %v), want PushLate", ws, res)
	}
	if w.dropped != 1 {
		t.Errorf("dropped = %d, want 1", w.dropped)
	}
	// Disorder within the open window is tolerated: a tally has no order.
	if _, res := w.Push(event.New("c", 11)); res != PushAccepted {
		t.Error("in-window disorder rejected")
	}
	closed = append(closed, w.FlushInto(nil)...)
	// [0,10) holds a; [10,20) holds b and c; "late" is in neither.
	checkTallies(t, closed, 10, event.New("a", 1), event.New("b", 12), event.New("c", 11))
}

func TestWindowerReorderBuffer(t *testing.T) {
	w := NewSlidingWindower(10, 10, ReorderBuffer, 5, 0)
	// With lateness 5 the watermark trails maxTime by 5: the event at 12
	// must NOT close [0,10) yet, so the straggler at 8 is reordered in.
	if ws := pushAll(t, w, event.New("a", 1), event.New("b", 12)); len(ws) != 0 {
		t.Fatalf("window closed before watermark passed: %+v", ws)
	}
	ws, res := w.Push(event.New("c", 8))
	if res != PushAccepted || len(ws) != 0 {
		t.Fatalf("straggler within lateness rejected (res=%v ws=%v)", res, ws)
	}
	// Watermark 15-5=10 closes [0,10) holding a and the straggler c, while b
	// and d stay in the open [10,20).
	closed, _ := w.Push(event.New("d", 15))
	if len(closed) != 1 {
		t.Fatalf("closed = %+v, want one window", closed)
	}
	checkTallies(t, closed, 10, event.New("a", 1), event.New("c", 8))
	// An event older than the watermark is still dropped.
	if _, res := w.Push(event.New("e", 3)); res != PushLate {
		t.Error("event older than watermark accepted")
	}
	checkTallies(t, w.FlushInto(nil), 10, event.New("b", 12), event.New("d", 15))
}

func TestWindowerBoundaryEvent(t *testing.T) {
	// An event exactly on a window boundary belongs to the later window
	// (intervals are half-open) and closes the earlier one.
	w := NewSlidingWindower(10, 10, DropLate, 0, 0)
	pushAll(t, w, event.New("a", 0))
	closed, _ := w.Push(event.New("b", 10))
	checkTallies(t, closed, 10, event.New("a", 0))
	checkTallies(t, w.FlushInto(nil), 10, event.New("b", 10)) // [10,20)
}

func TestWindowerNegativeTimestamps(t *testing.T) {
	w := NewSlidingWindower(10, 10, DropLate, 0, 0)
	closed := pushAll(t, w, event.New("a", -15), event.New("b", -2))
	if len(closed) != 1 || closed[0].Start != -20 || closed[0].End != -10 {
		t.Fatalf("negative-time window = %+v, want [-20,-10)", closed)
	}
}

func TestWindowerFlushResets(t *testing.T) {
	w := NewSlidingWindower(10, 10, DropLate, 0, 0)
	w.Push(event.New("a", 5))
	if out := w.FlushInto(nil); len(out) != 1 {
		t.Fatalf("flush = %+v", out)
	}
	if out := w.FlushInto(nil); out != nil {
		t.Errorf("second flush = %+v, want nil", out)
	}
	// A fresh feed can restart at an earlier time without being "late".
	if _, res := w.Push(event.New("b", 2)); res != PushAccepted {
		t.Error("restart after flush rejected")
	}
}

func TestWindowerHorizon(t *testing.T) {
	w := NewSlidingWindower(10, 10, DropLate, 0, 100)
	pushAll(t, w, event.New("a", 5))
	// A runaway timestamp beyond the horizon is rejected outright...
	ws, res := w.Push(event.New("runaway", 1_000_000))
	if res != PushFuture || len(ws) != 0 {
		t.Fatalf("runaway push = (%v, %v), want PushFuture", ws, res)
	}
	if w.dropped != 1 {
		t.Errorf("dropped = %d, want 1", w.dropped)
	}
	// ...and must not poison the watermark: on-time events still serve.
	if _, res := w.Push(event.New("b", 8)); res != PushAccepted {
		t.Error("on-time event rejected after runaway")
	}
	// A jump within the horizon still closes (bounded) gap windows.
	closed, res := w.Push(event.New("c", 95))
	if res != PushAccepted || len(closed) != 9 {
		t.Fatalf("in-horizon jump = %d windows (res=%v), want 9", len(closed), res)
	}
}

// TestWindowerTypeCounts pins the carried tally: every cut window's
// TypeCounts must agree exactly with the batch cut of the pushed events,
// across disorder, gap windows, and flush — and the window's fast-path
// queries with a scan.
func TestWindowerTypeCounts(t *testing.T) {
	w := NewSlidingWindower(10, 10, ReorderBuffer, 3, 0)
	var closed []stream.Window
	var pushed []event.Event
	push := func(typ event.Type, ts event.Timestamp) {
		e := event.New(typ, ts)
		ws, res := w.Push(e)
		if res != PushAccepted {
			t.Fatalf("push %s@%d: %v", typ, ts, res)
		}
		pushed = append(pushed, e)
		closed = append(closed, ws...)
	}
	push("a", 1)
	push("b", 4)
	push("a", 3) // disorder within the open window
	push("a", 12)
	push("b", 45) // forces gap windows
	closed = append(closed, w.FlushInto(nil)...)
	if len(closed) != 5 {
		t.Fatalf("%d windows closed, want 5", len(closed))
	}
	checkTallies(t, closed, 10, pushed...)
	for _, win := range closed {
		for _, typ := range []event.Type{"a", "b", "zzz"} {
			scan := countIn(pushed, typ, win.Start, win.End)
			if win.Count(typ) != scan {
				t.Errorf("window [%d,%d): Count(%s)=%d, scan=%d", win.Start, win.End, typ, win.Count(typ), scan)
			}
		}
	}
}

// TestWindowerPushIntoReusesBuffer pins the scratch contract: a tumbling
// window owns its tally, so reusing the closed-window buffer — and pushing
// on, which tallies into fresh panes — must not corrupt a previously
// returned window.
func TestWindowerPushIntoReusesBuffer(t *testing.T) {
	w := NewSlidingWindower(10, 10, DropLate, 0, 0)
	var scratch []stream.Window
	ws, _ := w.PushInto(event.New("a", 5), scratch[:0])
	if len(ws) != 0 {
		t.Fatalf("first push closed %d windows", len(ws))
	}
	ws, _ = w.PushInto(event.New("b", 15), ws[:0])
	if len(ws) != 1 {
		t.Fatalf("second push closed %d windows, want 1", len(ws))
	}
	first := ws[0]
	// Reuse the buffer and keep pushing, through two more cuts and a flush;
	// the earlier window must stay intact.
	ws, _ = w.PushInto(event.New("c", 25), ws[:0])
	if len(ws) != 1 {
		t.Fatalf("third push closed %d windows, want 1", len(ws))
	}
	ws, _ = w.PushInto(event.New("a", 26), ws[:0])
	ws, _ = w.PushInto(event.New("d", 35), ws[:0])
	w.FlushInto(ws[:0])
	checkTallies(t, []stream.Window{first}, 10, event.New("a", 5))
}
