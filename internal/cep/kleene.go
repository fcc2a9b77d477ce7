package cep

import (
	"fmt"

	"patterndp/internal/event"
)

// Times matches when its inner expression occurs at least Min and at most
// Max times within the window (Kleene-style repetition). Max = 0 means
// unbounded.
//
// Over released indicators, repetition counts are not observable — only
// existence is released — so EvalIndicators treats Times with Min ≤ 1 as
// presence of the inner expression and Times with Min > 1 conservatively as
// not detected (a released existence bit cannot witness two occurrences).
type Times struct {
	// Inner is the repeated expression.
	Inner Expr
	// Min is the minimum number of occurrences (≥ 1).
	Min int
	// Max is the maximum number of occurrences; 0 means unbounded.
	Max int
}

// TimesOf builds a repetition expression.
func TimesOf(inner Expr, min, max int) *Times {
	return &Times{Inner: inner, Min: min, Max: max}
}

// Types implements Expr.
func (t *Times) Types() []event.Type {
	if t.Inner == nil {
		return nil
	}
	return t.Inner.Types()
}

// String implements Expr. The rendering is valid parser input: TIMES with
// one bound means "at least Min", with two bounds "between Min and Max".
func (t *Times) String() string {
	inner := "<nil>"
	if t.Inner != nil {
		inner = t.Inner.String()
	}
	if t.Max == 0 {
		return fmt.Sprintf("TIMES(%s, %d)", inner, t.Min)
	}
	return fmt.Sprintf("TIMES(%s, %d, %d)", inner, t.Min, t.Max)
}

func (t *Times) validate() error {
	if t.Inner == nil {
		return fmt.Errorf("cep: TIMES with nil inner expression")
	}
	if t.Min < 1 {
		return fmt.Errorf("cep: TIMES minimum %d must be >= 1", t.Min)
	}
	if t.Max != 0 && t.Max < t.Min {
		return fmt.Errorf("cep: TIMES maximum %d below minimum %d", t.Max, t.Min)
	}
	return t.Inner.validate()
}
