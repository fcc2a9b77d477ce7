package core

import (
	"testing"

	"patterndp/internal/cep"
	"patterndp/internal/event"
	"patterndp/internal/stream"
)

// TestProcessWindowsTallyOnlyWindows pins that the engine serves tallies
// assembled by hand, as the sliding runtime assembles them from panes,
// exactly like the windows WindowSlice cuts from the same events: same
// indicator inputs, same noise draws under the same seed, hence bit-for-bit
// identical answers.
func TestProcessWindowsTallyOnlyWindows(t *testing.T) {
	pt, err := NewPatternType("p", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	build := func() *PrivateEngine {
		// A small budget makes flips likely, so equal answers pin equal
		// randomness consumption, not just equal truth.
		ppm, err := NewUniformPPM(0.5, pt)
		if err != nil {
			t.Fatal(err)
		}
		pe, err := NewPrivateEngine(ppm, []PatternType{pt}, 99)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []cep.Query{
			{Name: "has-a", Pattern: cep.E("a"), Window: 10},
			{Name: "ab", Pattern: cep.SeqTypes("a", "b"), Window: 10},
			{Name: "not-c", Pattern: cep.NegOf(cep.E("c")), Window: 10},
		} {
			if err := pe.RegisterTarget(q); err != nil {
				t.Fatal(err)
			}
		}
		return pe
	}

	var all []event.Event
	var tallyOnly []stream.Window
	for i := 0; i < 12; i++ {
		base := event.Timestamp(i * 10)
		var evs []event.Event
		evs = append(evs, event.New("a", base+1))
		if i%2 == 0 {
			evs = append(evs, event.New("b", base+5))
		}
		if i%3 == 0 {
			evs = append(evs, event.New("c", base+7))
		}
		var tally stream.TypeCounts
		for _, e := range evs {
			tally = tally.Add(e.Type)
		}
		all = append(all, evs...)
		tallyOnly = append(tallyOnly, stream.Window{Start: base, End: base + 10, TypeCounts: tally})
	}

	sliced := stream.WindowSlice(all, 10)
	if len(sliced) != len(tallyOnly) {
		t.Fatalf("WindowSlice cut %d windows, want %d", len(sliced), len(tallyOnly))
	}
	a, err := build().ProcessWindows(sliced)
	if err != nil {
		t.Fatal(err)
	}
	b, err := build().ProcessWindows(tallyOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("answer counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Query != b[i].Query || a[i].WindowIndex != b[i].WindowIndex || a[i].Detected != b[i].Detected {
			t.Errorf("answer %d: sliced %+v, tally-only %+v", i, a[i], b[i])
		}
	}
}
