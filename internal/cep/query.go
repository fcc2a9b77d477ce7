package cep

import (
	"fmt"

	"patterndp/internal/event"
)

// Query is a registered continuous query: a named pattern expression plus
// the window width within which the pattern must complete. In the paper's
// system model, data subjects register queries describing private patterns
// and data consumers register queries describing target patterns; both are
// ordinary queries to the engine.
type Query struct {
	// Name identifies the query and labels its answers.
	Name string
	// Pattern is the expression to detect.
	Pattern Expr
	// Window is the logical-time width within which a match must complete.
	Window event.Timestamp
}

// Validate reports structural errors in the query.
func (q Query) Validate() error {
	if q.Name == "" {
		return fmt.Errorf("cep: query with empty name")
	}
	if q.Pattern == nil {
		return fmt.Errorf("cep: query %q has nil pattern", q.Name)
	}
	if err := q.Pattern.validate(); err != nil {
		return fmt.Errorf("cep: query %q: %w", q.Name, err)
	}
	if q.Window <= 0 {
		return fmt.Errorf("cep: query %q has non-positive window %d", q.Name, q.Window)
	}
	return nil
}
