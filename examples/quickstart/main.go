// Quickstart: protect a private pattern while answering a target query.
//
// A passenger does not want trips near the hospital revealed; the city wants
// traffic-jam detections. Both patterns share the "near-hospital" event, so
// the jam query must be answered under pattern-level DP.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"patterndp"
)

func main() {
	// Setup phase (Fig. 2): the data subject registers the private pattern.
	private, err := patterndp.NewPatternType("hospital-trip",
		"enter-taxi", "near-hospital")
	if err != nil {
		log.Fatal(err)
	}

	// The chosen mechanism: uniform pattern-level PPM with budget ε = 1.
	ppm, err := patterndp.NewUniformPPM(1.0, private)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("private pattern %q: eps=%.2f split over %d elements\n",
		"hospital-trip", float64(ppm.TotalEpsilon()), private.Len())
	for _, el := range private.Elements {
		fmt.Printf("  element %-14s flip probability %.4f\n", el, ppm.FlipProb(el))
	}

	engine, err := patterndp.NewPrivateEngine(ppm, []patterndp.PatternType{private}, 42)
	if err != nil {
		log.Fatal(err)
	}

	// The data consumer registers its target query.
	err = engine.RegisterTarget(patterndp.Query{
		Name:    "traffic-jam",
		Pattern: patterndp.SeqTypes("near-hospital", "slow-speed"),
		Window:  10,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Service phase: raw events stream in.
	events := []patterndp.Event{
		patterndp.NewEvent("enter-taxi", 1),
		patterndp.NewEvent("near-hospital", 3),
		patterndp.NewEvent("slow-speed", 5), // window 0: jam near hospital
		patterndp.NewEvent("enter-taxi", 12),
		patterndp.NewEvent("slow-speed", 15), // window 1: slow but not near hospital
	}
	answers, err := engine.ProcessEvents(events, 10)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nreleased answers (perturbed where the private pattern is involved):")
	for _, a := range answers {
		fmt.Printf("  window %d [%d,%d): %-12s detected=%t\n",
			a.WindowIndex, a.Start, a.End, a.Query, a.Detected)
	}
	fmt.Println("\nnote: \"near-hospital\" is an element of the private pattern, so its")
	fmt.Println("indicator passes through randomized response; \"slow-speed\" is public")
	fmt.Println("and is never perturbed. Re-run to see different random outcomes.")
}
