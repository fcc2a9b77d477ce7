package cep

import (
	"math/rand"
	"testing"

	"patterndp/internal/event"
)

// FuzzParse drives the query parser with arbitrary input; it must never
// panic, and any accepted input must produce an expression whose rendered
// form re-parses to the same rendering. An accepted expression must also
// compile, and under the presence mask taken from the second argument (bit i
// for the i-th of expr.Types()) the interpreter, the compiled plan, and the
// plan bound to a shuffled table holding one extra type must all agree.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SEQ(a, b) WITHIN 10",
		"AND(a, OR(b, NEG(c)))",
		"TIMES(retry, 3)",
		"TIMES(SEQ(a, b), 1, 2)",
		"cell-3-7",
		"seq(a,and(b,c))",
		"SEQ(",
		")))",
		"WITHIN",
		"a WITHIN 99999999",
		"TIMES(a, 0)",
		"@#$%",
		"SEQ(a, b) WITHIN 10 trailing",
	}
	for i, s := range seeds {
		f.Add(s, uint64(i)*0x9E3779B97F4A7C15)
	}
	f.Fuzz(func(t *testing.T, input string, mask uint64) {
		expr, window, err := Parse(input)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if expr == nil {
			t.Fatal("nil expression without error")
		}
		if window < 0 {
			t.Fatalf("negative window %d", window)
		}
		rendered := expr.String()
		back, _, err := Parse(rendered)
		if err != nil {
			t.Fatalf("rendered form %q does not re-parse: %v", rendered, err)
		}
		if back.String() != rendered {
			t.Fatalf("rendering not a fixed point: %q -> %q", rendered, back.String())
		}

		p, err := Compile(Query{Name: "q", Pattern: expr, Window: 1})
		if err != nil {
			t.Fatalf("accepted input %q does not compile: %v", input, err)
		}
		types := expr.Types()
		present := make(map[event.Type]bool, len(types))
		for i, typ := range types {
			present[typ] = mask&(1<<(i%64)) != 0
		}
		table := append(types, "fuzz-extra-type")
		rand.New(rand.NewSource(int64(mask))).Shuffle(len(table), func(i, j int) {
			table[i], table[j] = table[j], table[i]
		})
		row := make([]bool, len(table))
		for pos, typ := range table {
			row[pos] = present[typ]
		}
		want := EvalIndicators(expr, present)
		if got := p.EvalIndicators(present); got != want {
			t.Fatalf("%s over %v: plan %t, interpreter %t", rendered, present, got, want)
		}
		if got := p.Bind(table).Eval(row); got != want {
			t.Fatalf("%s over %v bound to %v: %t, interpreter %t", rendered, present, table, got, want)
		}
	})
}
