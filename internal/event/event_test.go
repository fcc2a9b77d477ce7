package event

import (
	"testing"
	"testing/quick"
)

func TestEventImmutability(t *testing.T) {
	e := New("a", 1)
	e2 := e.WithSource("s1")
	if e.Source != "" {
		t.Error("WithSource mutated the receiver")
	}
	e3 := e2.WithSource("s2")
	if e2.Source != "s1" || e3.Source != "s2" {
		t.Errorf("chained WithSource: %v, %v", e2, e3)
	}
}

func TestEventEqual(t *testing.T) {
	a := New("a", 1).WithSource("s")
	b := New("a", 1).WithSource("s")
	if a != b {
		t.Error("identical events not equal")
	}
	if a == b.WithSource("t") {
		t.Error("different sources equal")
	}
	if a == New("a", 2).WithSource("s") {
		t.Error("different times equal")
	}
	if a == New("b", 1).WithSource("s") {
		t.Error("different types equal")
	}
}

func TestEventString(t *testing.T) {
	for e, want := range map[Event]string{
		New("go", 7).WithSource("taxi1"): "go@7/taxi1",
		New("go", -3):                    "go@-3",
	} {
		if got := e.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestBeforeOrdering(t *testing.T) {
	a := New("a", 1)
	b := New("b", 2)
	if !a.Before(b) || b.Before(a) {
		t.Error("time ordering broken")
	}
	// Tie on time: source breaks tie.
	c := New("a", 1).WithSource("s1")
	d := New("a", 1).WithSource("s2")
	if !c.Before(d) {
		t.Error("source tiebreak broken")
	}
	// Tie on time+source: type breaks tie.
	e := New("a", 1)
	f := New("b", 1)
	if !e.Before(f) {
		t.Error("type tiebreak broken")
	}
}

func TestSortEventsDeterministic(t *testing.T) {
	evs := []Event{New("c", 3), New("a", 1), New("b", 1), New("z", 2)}
	SortEvents(evs)
	want := []Type{"a", "b", "z", "c"}
	for i, ty := range TypesOf(evs) {
		if ty != want[i] {
			t.Fatalf("order = %v, want %v", TypesOf(evs), want)
		}
	}
}

func TestSortEventsProperty(t *testing.T) {
	// Property: after SortEvents, every adjacent pair is ordered by Before.
	f := func(times []int8) bool {
		evs := make([]Event, len(times))
		for i, ts := range times {
			evs[i] = New(Type(rune('a'+i%26)), Timestamp(ts))
		}
		SortEvents(evs)
		for i := 1; i < len(evs); i++ {
			if evs[i].Before(evs[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewPatternSortsEvents(t *testing.T) {
	p := NewPattern("p", New("b", 2), New("a", 1))
	if p.Events[0].Type != "a" {
		t.Error("NewPattern did not sort")
	}
	if p.Start() != 1 || p.End() != 2 {
		t.Errorf("Start/End = %d/%d", p.Start(), p.End())
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d", p.Len())
	}
}

func TestEmptyPattern(t *testing.T) {
	p := NewPattern("empty")
	if p.Start() != 0 || p.End() != 0 || p.Len() != 0 {
		t.Error("empty pattern accessors broken")
	}
}

func TestPatternContainsOverlaps(t *testing.T) {
	e1, e2, e3 := New("a", 1), New("b", 2), New("c", 3)
	p := NewPattern("p", e1, e2)
	q := NewPattern("q", e2, e3)
	r := NewPattern("r", e3)
	if !p.Contains(e1) || p.Contains(e3) {
		t.Error("Contains broken")
	}
	if !p.Overlaps(q) {
		t.Error("p and q share e2, should overlap")
	}
	if p.Overlaps(r) {
		t.Error("p and r share nothing")
	}
}

func TestPatternEqual(t *testing.T) {
	e1, e2 := New("a", 1), New("b", 2)
	p := NewPattern("p", e1, e2)
	if !p.Equal(NewPattern("p", e2, e1)) {
		t.Error("order-insensitive construction should yield equal patterns")
	}
	if p.Equal(NewPattern("q", e1, e2)) {
		t.Error("different names equal")
	}
	if p.Equal(NewPattern("p", e1)) {
		t.Error("different lengths equal")
	}
}

func TestInPatternNeighbor(t *testing.T) {
	e1, e2, e3 := New("a", 1), New("b", 2), New("c", 3)
	e2x := New("x", 2)
	p := NewPattern("p", e1, e2, e3)
	q := NewPattern("p", e1, e2x, e3)
	if !p.InPatternNeighbor(q) {
		t.Error("single-element difference should be neighbors")
	}
	if p.InPatternNeighbor(p) {
		t.Error("identical patterns are not neighbors (need exactly one diff)")
	}
	r := NewPattern("p", New("x", 1), New("y", 2), e3)
	if p.InPatternNeighbor(r) {
		t.Error("two diffs are not neighbors")
	}
	if p.InPatternNeighbor(NewPattern("p", e1, e2)) {
		t.Error("different lengths are not neighbors")
	}
	if NewPattern("p").InPatternNeighbor(NewPattern("p")) {
		t.Error("empty patterns are not neighbors")
	}
}

func TestPatternString(t *testing.T) {
	p := NewPattern("jam", New("a", 1), New("b", 2))
	got := p.String()
	want := "jam(seq a@1, b@2)"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
