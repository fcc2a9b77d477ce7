// Package cep is the query layer of the paper's trusted complex event
// processing engine: pattern expressions, their textual parser, and compiled
// plans that answer a query over one window's released presence indicators.
//
// Patterns are expressed with a small AST — SEQ, AND, OR, NEG and TIMES over
// typed event atoms — which covers the queries the paper's evaluation uses
// (binary existence of a pattern inside a window). Every answer is computed
// from the released indicator vector I(e) that the privacy mechanisms
// perturb, because both the paper's guarantee and its quality measure are
// defined over it: once the existence bits are randomized, order and
// repetition counts are no longer observable, so SEQ reads as a conjunction
// and TIMES as presence (see EvalIndicators).
package cep

import (
	"errors"
	"fmt"
	"strings"

	"patterndp/internal/event"
)

// Expr is a pattern expression node.
type Expr interface {
	// Types lists every event type referenced by the expression, in
	// first-appearance order and without duplicates.
	Types() []event.Type
	// String renders the expression in the SEQ(...) / AND(...) syntax.
	String() string
	// validate reports structural errors (empty operator bodies, nil parts).
	validate() error
}

// Atom matches a single event of a given type.
type Atom struct {
	// Type is the event type the atom matches.
	Type event.Type
}

// E builds an atom for the given event type.
func E(t event.Type) *Atom { return &Atom{Type: t} }

// Types implements Expr.
func (a *Atom) Types() []event.Type { return []event.Type{a.Type} }

// String implements Expr.
func (a *Atom) String() string { return string(a.Type) }

func (a *Atom) validate() error {
	if a.Type == "" {
		return errors.New("cep: atom with empty event type")
	}
	return nil
}

// Seq matches its parts in strict temporal order (the paper's seq operator).
type Seq struct {
	Parts []Expr
}

// SeqOf builds a sequence expression.
func SeqOf(parts ...Expr) *Seq { return &Seq{Parts: parts} }

// SeqTypes builds a sequence of atoms — the common case
// P = seq(e1, …, em).
func SeqTypes(types ...event.Type) *Seq {
	parts := make([]Expr, len(types))
	for i, t := range types {
		parts[i] = E(t)
	}
	return &Seq{Parts: parts}
}

// Types implements Expr.
func (s *Seq) Types() []event.Type { return collectTypes(s.Parts) }

// String implements Expr.
func (s *Seq) String() string { return renderOp("SEQ", s.Parts) }

func (s *Seq) validate() error { return validateParts("SEQ", s.Parts) }

// And matches when all parts occur within the window, in any order.
type And struct {
	Parts []Expr
}

// AndOf builds a conjunction expression.
func AndOf(parts ...Expr) *And { return &And{Parts: parts} }

// Types implements Expr.
func (a *And) Types() []event.Type { return collectTypes(a.Parts) }

// String implements Expr.
func (a *And) String() string { return renderOp("AND", a.Parts) }

func (a *And) validate() error { return validateParts("AND", a.Parts) }

// Or matches when at least one part occurs within the window.
type Or struct {
	Parts []Expr
}

// OrOf builds a disjunction expression.
func OrOf(parts ...Expr) *Or { return &Or{Parts: parts} }

// Types implements Expr.
func (o *Or) Types() []event.Type { return collectTypes(o.Parts) }

// String implements Expr.
func (o *Or) String() string { return renderOp("OR", o.Parts) }

func (o *Or) validate() error { return validateParts("OR", o.Parts) }

// Neg matches when its inner expression does NOT occur within the window.
type Neg struct {
	Inner Expr
}

// NegOf builds a negation expression.
func NegOf(inner Expr) *Neg { return &Neg{Inner: inner} }

// Types implements Expr.
func (n *Neg) Types() []event.Type {
	if n.Inner == nil {
		return nil
	}
	return n.Inner.Types()
}

// String implements Expr.
func (n *Neg) String() string {
	if n.Inner == nil {
		return "NEG(<nil>)"
	}
	return fmt.Sprintf("NEG(%s)", n.Inner)
}

func (n *Neg) validate() error {
	if n.Inner == nil {
		return errors.New("cep: NEG with nil inner expression")
	}
	return n.Inner.validate()
}

func collectTypes(parts []Expr) []event.Type {
	seen := make(map[event.Type]bool)
	var out []event.Type
	for _, p := range parts {
		if p == nil {
			continue
		}
		for _, t := range p.Types() {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	return out
}

func renderOp(op string, parts []Expr) string {
	strs := make([]string, len(parts))
	for i, p := range parts {
		if p == nil {
			strs[i] = "<nil>"
			continue
		}
		strs[i] = p.String()
	}
	return fmt.Sprintf("%s(%s)", op, strings.Join(strs, ", "))
}

func validateParts(op string, parts []Expr) error {
	if len(parts) == 0 {
		return fmt.Errorf("cep: %s with no parts", op)
	}
	for i, p := range parts {
		if p == nil {
			return fmt.Errorf("cep: %s part %d is nil", op, i)
		}
		if err := p.validate(); err != nil {
			return err
		}
	}
	return nil
}
