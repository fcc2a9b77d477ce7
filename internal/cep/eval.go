package cep

import (
	"fmt"

	"patterndp/internal/event"
)

// EvalIndicators evaluates the expression against per-type presence
// indicators. This is the query path used after a randomized-response PPM
// has perturbed the existence bits I(e_i): temporal order inside the window
// is no longer observable, so Seq degrades to "all types present" — exactly
// the binary-answer query class the paper assumes (a pattern is detected iff
// all its elements are detected in the window). It is the reference
// interpreter that compiled plans are tested against.
func EvalIndicators(e Expr, present map[event.Type]bool) bool {
	switch x := e.(type) {
	case *Atom:
		return present[x.Type]
	case *Seq:
		for _, p := range x.Parts {
			if !EvalIndicators(p, present) {
				return false
			}
		}
		return true
	case *And:
		for _, p := range x.Parts {
			if !EvalIndicators(p, present) {
				return false
			}
		}
		return true
	case *Or:
		for _, p := range x.Parts {
			if EvalIndicators(p, present) {
				return true
			}
		}
		return false
	case *Neg:
		return !EvalIndicators(x.Inner, present)
	case *Times:
		// A released existence bit can witness one occurrence at most.
		if x.Min > 1 {
			return false
		}
		return EvalIndicators(x.Inner, present)
	default:
		panic(fmt.Sprintf("cep: unknown expression node %T", e))
	}
}
