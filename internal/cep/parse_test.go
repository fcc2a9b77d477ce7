package cep

import (
	"strings"
	"testing"

	"patterndp/internal/event"
)

func TestParseAtom(t *testing.T) {
	e, w, err := Parse("door-open")
	if err != nil {
		t.Fatal(err)
	}
	if w != 0 {
		t.Errorf("window = %d", w)
	}
	a, ok := e.(*Atom)
	if !ok || a.Type != "door-open" {
		t.Errorf("parsed %T %v", e, e)
	}
}

func TestParseSeqWithin(t *testing.T) {
	e, w, err := Parse("SEQ(enter-taxi, near-hospital) WITHIN 10")
	if err != nil {
		t.Fatal(err)
	}
	if w != 10 {
		t.Errorf("window = %d", w)
	}
	s, ok := e.(*Seq)
	if !ok || len(s.Parts) != 2 {
		t.Fatalf("parsed %T %v", e, e)
	}
	if s.String() != "SEQ(enter-taxi, near-hospital)" {
		t.Errorf("String = %q", s.String())
	}
}

func TestParseNested(t *testing.T) {
	e, _, err := Parse("AND(a, OR(b, NEG(c)), SEQ(d, e))")
	if err != nil {
		t.Fatal(err)
	}
	want := "AND(a, OR(b, NEG(c)), SEQ(d, e))"
	if e.String() != want {
		t.Errorf("String = %q, want %q", e.String(), want)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	e, _, err := Parse("seq(a, and(b, c))")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*Seq); !ok {
		t.Errorf("parsed %T", e)
	}
}

func TestParseTimes(t *testing.T) {
	e, _, err := Parse("TIMES(retry, 3)")
	if err != nil {
		t.Fatal(err)
	}
	ts, ok := e.(*Times)
	if !ok || ts.Min != 3 || ts.Max != 0 {
		t.Fatalf("parsed %v", e)
	}
	if ts.String() != "TIMES(retry, 3)" {
		t.Errorf("String = %q", ts.String())
	}
	e2, _, err := Parse("TIMES(retry, 1, 2)")
	if err != nil {
		t.Fatal(err)
	}
	ts2 := e2.(*Times)
	if ts2.Min != 1 || ts2.Max != 2 {
		t.Errorf("bounds = %d..%d", ts2.Min, ts2.Max)
	}
	if ts2.String() != "TIMES(retry, 1, 2)" {
		t.Errorf("String = %q", ts2.String())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SEQ()",
		"SEQ(a",
		"SEQ(a,)",
		"SEQ(a) WITHIN",
		"SEQ(a) WITHIN x",
		"SEQ(a) WITHIN 0",
		"SEQ(a) trailing",
		"NEG(a, b)",
		"NEG()",
		"TIMES(a)",
		"TIMES(a, x)",
		"TIMES(a, 0)",
		"TIMES(a, 3, 2)",
		"TIMES(a, 1, x)",
		"unknown(a)",
		"WITHIN 5",
		"SEQ(a))",
		"@bad",
		"(a)",
	}
	for _, in := range bad {
		if _, _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

func TestParseIdentifierCharset(t *testing.T) {
	e, _, err := Parse("cell-3-7")
	if err != nil {
		t.Fatal(err)
	}
	if e.(*Atom).Type != "cell-3-7" {
		t.Errorf("type = %v", e.(*Atom).Type)
	}
	e2, _, err := Parse("ns:reading_1.5x")
	if err != nil {
		t.Fatal(err)
	}
	if e2.(*Atom).Type != "ns:reading_1.5x" {
		t.Errorf("type = %v", e2.(*Atom).Type)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("SEQ(")
}

func TestParseQuery(t *testing.T) {
	q, err := ParseQuery("jam", "SEQ(a, b) WITHIN 20", 5)
	if err != nil {
		t.Fatal(err)
	}
	if q.Window != 20 || q.Name != "jam" {
		t.Errorf("query = %+v", q)
	}
	q2, err := ParseQuery("jam", "SEQ(a, b)", 5)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Window != 5 {
		t.Errorf("default window = %d", q2.Window)
	}
	if _, err := ParseQuery("bad", "SEQ(", 5); err == nil {
		t.Error("bad query accepted")
	}
	if _, err := ParseQuery("", "a", 5); err == nil {
		t.Error("empty name accepted")
	}
}

func TestParseRoundTripThroughString(t *testing.T) {
	inputs := []string{
		"SEQ(a, b, c)",
		"AND(a, NEG(b))",
		"OR(SEQ(a, b), c)",
	}
	for _, in := range inputs {
		e := MustParse(in)
		back := MustParse(e.String())
		if back.String() != e.String() {
			t.Errorf("round trip %q -> %q -> %q", in, e.String(), back.String())
		}
	}
}

func TestTimesValidation(t *testing.T) {
	bad := []*Times{
		{Inner: nil, Min: 1},
		{Inner: E("a"), Min: 0},
		{Inner: E("a"), Min: 3, Max: 2},
		{Inner: E(""), Min: 1},
	}
	for i, ts := range bad {
		if err := ts.validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	good := &Times{Inner: E("a"), Min: 2, Max: 0}
	if err := good.validate(); err != nil {
		t.Error(err)
	}
}

func TestTimesOfSequences(t *testing.T) {
	// TIMES over a sequence reads as the sequence's presence when one
	// occurrence suffices, and as never detected when a released existence
	// bit would have to witness two.
	present := map[event.Type]bool{"a": true, "b": true}
	if !EvalIndicators(TimesOf(SeqTypes("a", "b"), 1, 0), present) {
		t.Error("TIMES(SEQ(a, b), 1) with a and b present: want detected")
	}
	present["b"] = false
	if EvalIndicators(TimesOf(SeqTypes("a", "b"), 1, 0), present) {
		t.Error("TIMES(SEQ(a, b), 1) without b: want not detected")
	}
	present["b"] = true
	if EvalIndicators(TimesOf(SeqTypes("a", "b"), 2, 0), present) {
		t.Error("TIMES(SEQ(a, b), 2) cannot be witnessed by existence bits")
	}
}

func TestTimesEvalIndicators(t *testing.T) {
	present := map[event.Type]bool{"r": true}
	if !EvalIndicators(TimesOf(E("r"), 1, 0), present) {
		t.Error("TIMES min=1 over indicators should reduce to presence")
	}
	if EvalIndicators(TimesOf(E("r"), 2, 0), present) {
		t.Error("TIMES min>1 cannot be witnessed by an existence bit")
	}
}

func TestTimesTypesAndQueryIntegration(t *testing.T) {
	ts := TimesOf(SeqTypes("a", "b"), 2, 0)
	got := ts.Types()
	if len(got) != 2 {
		t.Errorf("Types = %v", got)
	}
	q := Query{Name: "q", Pattern: ts, Window: 10}
	if err := q.Validate(); err != nil {
		t.Errorf("TIMES query invalid: %v", err)
	}
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.EvalIndicators(map[event.Type]bool{"a": true, "b": true}) {
		t.Error("compiled TIMES(.., 2) detected from existence bits")
	}
}

func TestParsedExprEvaluates(t *testing.T) {
	e := MustParse("SEQ(a, OR(b, c))")
	if !EvalIndicators(e, map[event.Type]bool{"a": true, "c": true}) {
		t.Error("parsed expression failed to evaluate")
	}
	if !strings.Contains(e.String(), "OR(b, c)") {
		t.Errorf("String = %q", e.String())
	}
}
