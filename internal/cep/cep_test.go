package cep

import (
	"strings"
	"testing"

	"patterndp/internal/event"
)

func TestExprTypesDedup(t *testing.T) {
	e := SeqOf(E("a"), AndOf(E("b"), E("a")), OrOf(E("c")))
	got := e.Types()
	want := []event.Type{"a", "b", "c"}
	if len(got) != 3 {
		t.Fatalf("Types = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Types = %v, want %v", got, want)
		}
	}
}

func TestExprString(t *testing.T) {
	e := SeqOf(E("a"), NegOf(AndOf(E("b"), E("c"))))
	s := e.String()
	if !strings.Contains(s, "SEQ(") || !strings.Contains(s, "NEG(AND(b, c))") {
		t.Errorf("String = %q", s)
	}
}

func TestValidate(t *testing.T) {
	bad := []Query{
		{Name: "", Pattern: E("a"), Window: 1},
		{Name: "q", Pattern: nil, Window: 1},
		{Name: "q", Pattern: E("a"), Window: 0},
		{Name: "q", Pattern: SeqOf(), Window: 1},
		{Name: "q", Pattern: SeqOf(nil), Window: 1},
		{Name: "q", Pattern: NegOf(nil), Window: 1},
		{Name: "q", Pattern: E(""), Window: 1},
		{Name: "q", Pattern: AndOf(), Window: 1},
		{Name: "q", Pattern: OrOf(), Window: 1},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	good := Query{Name: "q", Pattern: SeqTypes("a", "b"), Window: 10}
	if err := good.Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
}

func TestEvalIndicators(t *testing.T) {
	present := map[event.Type]bool{"a": true, "b": false, "c": true}
	if !EvalIndicators(E("a"), present) || EvalIndicators(E("b"), present) {
		t.Error("atom indicators broken")
	}
	if EvalIndicators(SeqTypes("a", "b"), present) {
		t.Error("seq with missing element matched")
	}
	if !EvalIndicators(SeqTypes("a", "c"), present) {
		t.Error("seq degrades to all-present over indicators")
	}
	if !EvalIndicators(OrOf(E("b"), E("c")), present) {
		t.Error("or over indicators broken")
	}
	if !EvalIndicators(NegOf(E("b")), present) {
		t.Error("neg over indicators broken")
	}
	if !EvalIndicators(AndOf(E("a"), E("c")), present) {
		t.Error("and over indicators broken")
	}
}
