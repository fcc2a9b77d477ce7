package patterndp_test

import (
	"fmt"

	"patterndp"
)

// ExampleNewUniformPPM shows the budget split of Fig. 3: ε spread evenly
// over the elements of the private pattern.
func ExampleNewUniformPPM() {
	private, _ := patterndp.NewPatternType("trip", "enter", "near-hospital")
	ppm, _ := patterndp.NewUniformPPM(2.0, private)
	for _, el := range private.Elements {
		fmt.Printf("%s: flip probability %.4f\n", el, ppm.FlipProb(el))
	}
	fmt.Printf("public events: flip probability %.4f\n", ppm.FlipProb("other"))
	// Output:
	// enter: flip probability 0.2689
	// near-hospital: flip probability 0.2689
	// public events: flip probability 0.0000
}

// ExampleParse shows the textual query language.
func ExampleParse() {
	expr, window, err := patterndp.Parse("SEQ(enter-taxi, near-hospital) WITHIN 10")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(expr, "window:", window)
	// Output:
	// SEQ(enter-taxi, near-hospital) window: 10
}

// ExampleNewPrivateEngine walks the setup and service phases of Fig. 2 with
// a huge budget so the released answers are deterministic.
func ExampleNewPrivateEngine() {
	private, _ := patterndp.NewPatternType("trip", "enter-taxi", "near-hospital")
	ppm, _ := patterndp.NewUniformPPM(1000, private) // demo: negligible noise
	engine, _ := patterndp.NewPrivateEngine(ppm, []patterndp.PatternType{private}, 1)
	engine.RegisterTarget(patterndp.Query{
		Name:    "jam",
		Pattern: patterndp.SeqTypes("near-hospital", "slow"),
		Window:  10,
	})
	answers, _ := engine.ProcessEvents([]patterndp.Event{
		patterndp.NewEvent("near-hospital", 1),
		patterndp.NewEvent("slow", 3),
		patterndp.NewEvent("slow", 14),
	}, 10)
	for _, a := range answers {
		fmt.Printf("window %d: %s detected=%t\n", a.WindowIndex, a.Query, a.Detected)
	}
	// Output:
	// window 0: jam detected=true
	// window 1: jam detected=false
}

// ExampleWindowSlice shows the tumbling-window batching of an event slice:
// each window is its interval and a per-type tally of the events inside it.
func ExampleWindowSlice() {
	events := []patterndp.Event{
		patterndp.NewEvent("a", 0),
		patterndp.NewEvent("b", 7),
		patterndp.NewEvent("a", 13),
	}
	for i, w := range patterndp.WindowSlice(events, 10) {
		n := 0
		for _, c := range w.TypeCounts {
			n += c.N
		}
		fmt.Printf("window %d [%d,%d): %d events\n", i, w.Start, w.End, n)
	}
	// Output:
	// window 0 [0,10): 2 events
	// window 1 [10,20): 1 events
}
