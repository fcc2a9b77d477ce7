package cep

import (
	"math/rand"
	"testing"
	"testing/quick"

	"patterndp/internal/event"
)

func TestPropertySeqIndicatorsIsConjunction(t *testing.T) {
	// Over indicators, SEQ reduces to conjunction of presences.
	f := func(pa, pb, pc bool) bool {
		present := map[event.Type]bool{"a": pa, "b": pb, "c": pc}
		got := EvalIndicators(SeqTypes("a", "b", "c"), present)
		return got == (pa && pb && pc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyNegIsComplement(t *testing.T) {
	// Over any presence map, the compiled NEG of an expression answers the
	// opposite of the expression, through constant folding and double
	// negation included.
	f := func(shape uint32, pa, pb, pc, pd bool) bool {
		e := randomExprTimes(rand.New(rand.NewSource(int64(shape))), 3)
		present := map[event.Type]bool{"a": pa, "b": pb, "c": pc, "d": pd}
		p, err := Compile(Query{Name: "q", Pattern: NegOf(e), Window: 1})
		return err == nil && p.EvalIndicators(present) != EvalIndicators(e, present)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyOrMonotone(t *testing.T) {
	// Adding a disjunct never turns a match into a non-match.
	f := func(pa, pb, pc bool) bool {
		present := map[event.Type]bool{"a": pa, "b": pb, "c": pc}
		base := EvalIndicators(OrOf(E("a"), E("b")), present)
		wider := EvalIndicators(OrOf(E("a"), E("b"), E("c")), present)
		return !base || wider
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyParseStringRoundTrip(t *testing.T) {
	// Rendering a random expression tree and re-parsing it preserves the
	// rendered form (String is a fixed point of Parse ∘ String).
	f := func(depth uint8, shape uint32) bool {
		e := randomExpr(rand.New(rand.NewSource(int64(shape))), int(depth%3)+1)
		s := e.String()
		back, _, err := Parse(s)
		if err != nil {
			return false
		}
		return back.String() == s
	}
	cfg := &quick.Config{MaxCount: 80}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func randomExpr(rng *rand.Rand, depth int) Expr {
	types := []event.Type{"a", "b", "c", "d"}
	if depth <= 0 {
		return E(types[rng.Intn(len(types))])
	}
	switch rng.Intn(5) {
	case 0:
		return SeqOf(randomExpr(rng, depth-1), randomExpr(rng, depth-1))
	case 1:
		return AndOf(randomExpr(rng, depth-1), randomExpr(rng, depth-1))
	case 2:
		return OrOf(randomExpr(rng, depth-1), randomExpr(rng, depth-1))
	case 3:
		return NegOf(randomExpr(rng, depth-1))
	default:
		return E(types[rng.Intn(len(types))])
	}
}
