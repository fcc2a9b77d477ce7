package cep

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"patterndp/internal/event"
)

// randomExprTimes extends the randomExpr generator with TIMES nodes, so plan
// equivalence covers the whole operator set including the Min>1 constant
// fold.
func randomExprTimes(rng *rand.Rand, depth int) Expr {
	types := []event.Type{"a", "b", "c", "d"}
	if depth <= 0 {
		return E(types[rng.Intn(len(types))])
	}
	switch rng.Intn(6) {
	case 0:
		return SeqOf(randomExprTimes(rng, depth-1), randomExprTimes(rng, depth-1))
	case 1:
		return AndOf(randomExprTimes(rng, depth-1), randomExprTimes(rng, depth-1))
	case 2:
		return OrOf(randomExprTimes(rng, depth-1), randomExprTimes(rng, depth-1))
	case 3:
		return NegOf(randomExprTimes(rng, depth-1))
	case 4:
		min := 1 + rng.Intn(3)
		max := 0
		if rng.Intn(2) == 0 {
			max = min + rng.Intn(2)
		}
		return TimesOf(randomExprTimes(rng, depth-1), min, max)
	default:
		return E(types[rng.Intn(len(types))])
	}
}

func mustPlan(t *testing.T, e Expr) *Plan {
	t.Helper()
	p, err := Compile(Query{Name: "q", Pattern: e, Window: 100})
	if err != nil {
		t.Fatalf("Compile(%s): %v", e, err)
	}
	return p
}

// TestPropertyPlanIndicators asserts the tentpole equivalence: over any
// presence map, the compiled plan's indicator answer equals the
// EvalIndicators interpreter's, for randomized expressions over the full
// operator set — and so does the plan bound to a type table, evaluated over
// the row of bits that table lays out. The table is a random subset of the
// alphabet plus a type no pattern uses: a type missing from it reads as
// absent.
func TestPropertyPlanIndicators(t *testing.T) {
	f := func(shape uint32, depth uint8, pa, pb, pc, pd bool, inTable uint8) bool {
		rng := rand.New(rand.NewSource(int64(shape)))
		e := randomExprTimes(rng, int(depth%4))
		present := map[event.Type]bool{"a": pa, "b": pb, "c": pc, "d": pd}
		p, err := Compile(Query{Name: "q", Pattern: e, Window: 100})
		if err != nil {
			return false
		}
		if p.EvalIndicators(present) != EvalIndicators(e, present) {
			return false
		}
		table := []event.Type{"unused"}
		visible := make(map[event.Type]bool)
		for i, typ := range []event.Type{"a", "b", "c", "d"} {
			if inTable&(1<<i) != 0 {
				table = append(table, typ)
				visible[typ] = present[typ]
			}
		}
		row := make([]bool, len(table))
		for pos, typ := range table {
			row[pos] = visible[typ]
		}
		return p.Bind(table).Eval(row) == EvalIndicators(e, visible)
	}
	cfg := &quick.Config{MaxCount: 400}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPlanConstantFolding(t *testing.T) {
	cases := []struct {
		expr Expr
		want int8
	}{
		// A released existence bit cannot witness two occurrences.
		{TimesOf(E("a"), 2, 0), -1},
		// ...so its negation is constantly detected.
		{NegOf(TimesOf(E("a"), 2, 0)), 1},
		// A constant-false conjunct sinks the conjunction.
		{AndOf(E("a"), TimesOf(E("b"), 3, 3)), -1},
		// A constant-true disjunct lifts the disjunction.
		{OrOf(E("a"), NegOf(TimesOf(E("b"), 2, 0))), 1},
		{E("a"), 0},
	}
	for _, c := range cases {
		p := mustPlan(t, c.expr)
		if p.constVal != c.want {
			t.Errorf("%s: constVal = %d, want %d", c.expr, p.constVal, c.want)
		}
		for _, present := range []map[event.Type]bool{
			{"a": true, "b": true},
			{"a": false, "b": false},
		} {
			if got, want := p.EvalIndicators(present), EvalIndicators(c.expr, present); got != want {
				t.Errorf("%s over %v: plan %t, interpreter %t", c.expr, present, got, want)
			}
		}
	}
}

func TestPlanRequiredTypes(t *testing.T) {
	cases := []struct {
		expr Expr
		want []event.Type
	}{
		{SeqTypes("a", "b", "c"), []event.Type{"a", "b", "c"}},
		{AndOf(E("a"), OrOf(E("b"), E("c"))), []event.Type{"a"}},
		{OrOf(SeqTypes("a", "b"), SeqTypes("a", "c")), []event.Type{"a"}},
		{NegOf(E("a")), nil},
		{AndOf(E("a"), NegOf(E("b"))), []event.Type{"a"}},
	}
	for _, c := range cases {
		p := mustPlan(t, c.expr)
		got := p.RequiredTypes()
		if len(got) != len(c.want) {
			t.Errorf("%s: required = %v, want %v", c.expr, got, c.want)
			continue
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: required = %v, want %v", c.expr, got, c.want)
			}
		}
	}
}

// TestPlanConjunctiveNoProgram pins the fast path: pure SEQ/AND-over-atom
// patterns answer from the required-type check alone.
func TestPlanConjunctiveNoProgram(t *testing.T) {
	p := mustPlan(t, SeqOf(E("a"), AndOf(E("b"), E("c"))))
	if !p.conjunctive || p.prog != nil {
		t.Fatalf("conjunctive = %t, prog = %v; want conjunctive fast path", p.conjunctive, p.prog)
	}
	if !p.EvalIndicators(map[event.Type]bool{"a": true, "b": true, "c": true}) {
		t.Error("all present: want detected")
	}
	if p.EvalIndicators(map[event.Type]bool{"a": true, "b": true, "c": false}) {
		t.Error("c absent: want not detected")
	}
}

// TestPlanWindowPruning asserts that required-type pruning is what answers
// windows missing a required type — and that it answers them correctly, by
// map and by row.
func TestPlanWindowPruning(t *testing.T) {
	p := mustPlan(t, AndOf(E("x"), OrOf(E("y"), NegOf(E("z")))))
	if p.EvalIndicators(map[event.Type]bool{"y": true}) {
		t.Error("indicators without required x: want not detected")
	}
	// A table without a required type binds to constant false.
	if b := p.Bind([]event.Type{"y", "z"}); b.constVal != -1 || b.Eval([]bool{true, false}) {
		t.Errorf("bound without x: constVal = %d, want -1", b.constVal)
	}
	b := p.Bind([]event.Type{"z", "y", "x"})
	if b.Eval([]bool{false, true, false}) {
		t.Error("row without required x: want not detected")
	}
	if !b.Eval([]bool{false, true, true}) {
		t.Error("x and y present: want detected")
	}
}

// TestPlanConcurrentUse exercises one shared plan from many goroutines, as
// the runtime's shards share each epoch's compiled plans; run with -race.
func TestPlanConcurrentUse(t *testing.T) {
	p := mustPlan(t, OrOf(SeqTypes("a", "b"), NegOf(E("c"))))
	present := map[event.Type]bool{"a": true, "b": true, "c": true}
	table := []event.Type{"c", "b", "a"}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				if !p.EvalIndicators(present) {
					t.Error("indicator answer changed under concurrency")
					return
				}
				if !p.Bind(table).Eval([]bool{true, true, true}) {
					t.Error("bound answer changed under concurrency")
					return
				}
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

func TestCompileRejectsInvalid(t *testing.T) {
	if _, err := Compile(Query{Name: "", Pattern: E("a"), Window: 10}); err == nil {
		t.Error("empty name: want error")
	}
	if _, err := Compile(Query{Name: "q", Pattern: SeqOf(), Window: 10}); err == nil {
		t.Error("empty SEQ: want error")
	}
}

// wideQuery is a query over n distinct types under one AND or OR, and the
// table of those types.
func wideQuery(op string, n int) (Query, []event.Type) {
	table := make([]event.Type, n)
	parts := make([]Expr, n)
	for i := range table {
		table[i] = event.Type(fmt.Sprintf("t%06d", i))
		parts[i] = E(table[i])
	}
	e := Expr(AndOf(parts...))
	if op == "OR" {
		e = OrOf(parts...)
	}
	return Query{Name: "wide", Pattern: e, Window: 10}, table
}

// TestCompileWide compiles and binds 100 000-type patterns, a size one
// RegisterQuery payload can carry, and checks the bound answer against the
// interpreter on an all-present row and on a row missing one type. Compile
// runs under the control-plane lock and Bind on every shard, so both must
// stay linear: a per-type scan of the table takes them to tens of seconds.
func TestCompileWide(t *testing.T) {
	for _, op := range []string{"AND", "OR"} {
		q, table := wideQuery(op, 100000)
		p, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		index := make(map[event.Type]int32, len(table))
		present := make(map[event.Type]bool, len(table))
		row := make([]bool, len(table))
		for i, typ := range table {
			index[typ] = int32(i)
			present[typ] = true
			row[i] = true
		}
		byTable, byIndex := p.Bind(table), p.Bind(table, index)
		for _, missing := range []int{-1, len(table) / 2} {
			if missing >= 0 {
				present[table[missing]] = false
				row[missing] = false
			}
			want := EvalIndicators(q.Pattern, present)
			if byTable.Eval(row) != want || byIndex.Eval(row) != want || p.EvalIndicators(present) != want {
				t.Errorf("%s, missing %d: want %t from every evaluator", op, missing, want)
			}
		}
	}
}

// BenchmarkCompileWide times Compile and Bind of one AND or OR over 1 000
// and 100 000 distinct types.
func BenchmarkCompileWide(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		for _, op := range []string{"AND", "OR"} {
			q, table := wideQuery(op, n)
			b.Run(fmt.Sprintf("%s/%d/compile", op, n), func(b *testing.B) {
				for b.Loop() {
					MustCompile(q)
				}
			})
			p := MustCompile(q)
			b.Run(fmt.Sprintf("%s/%d/bind", op, n), func(b *testing.B) {
				for b.Loop() {
					p.Bind(table)
				}
			})
		}
	}
}
