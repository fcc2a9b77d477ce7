package cep

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"patterndp/internal/event"
	"patterndp/internal/stream"
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

// TestPropertyPlanWindow asserts that the compiled plan's concrete-window
// answer (required-type pruning, pooled NFA for sequences, detect-only
// split) equals the EvalWindow interpreter's, and that Detect agrees too.
func TestPropertyPlanWindow(t *testing.T) {
	f := func(shape uint32, depth uint8, raw []byte) bool {
		rng := rand.New(rand.NewSource(int64(shape)))
		e := randomExprTimes(rng, int(depth%3))
		w := randomWindow(raw)
		want, _ := EvalWindow(e, w)
		p, err := Compile(Query{Name: "q", Pattern: e, Window: 100})
		if err != nil {
			return false
		}
		got, witness := p.EvalWindow(w)
		if got != want || got != p.DetectWindow(w) || got != Detect(e, w) {
			return false
		}
		// A sequence plan's witness must be a real, ordered instance.
		if got && p.seq != nil {
			if len(witness) != len(p.seq.Parts) {
				return false
			}
			for i, ev := range witness {
				if !p.seq.Parts[i].(*Atom).Matches(ev) {
					return false
				}
				if i > 0 && witness[i-1].Time >= ev.Time {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyDetectMatchesEvalWindow pins the detect-only split to the
// witness path over random expressions and windows.
func TestPropertyDetectMatchesEvalWindow(t *testing.T) {
	f := func(shape uint32, depth uint8, raw []byte) bool {
		rng := rand.New(rand.NewSource(int64(shape)))
		e := randomExprTimes(rng, int(depth%3))
		w := randomWindow(raw)
		want, _ := EvalWindow(e, w)
		return Detect(e, w) == want
	}
	cfg := &quick.Config{MaxCount: 300}
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
// windows missing a required type — and that it answers them correctly.
func TestPlanWindowPruning(t *testing.T) {
	p := mustPlan(t, SeqTypes("x", "y"))
	w := stream.Window{Start: 0, End: 10}
	for i := 0; i < 8; i++ {
		w.Events = append(w.Events, event.New("a", event.Timestamp(i)))
	}
	if ok, _ := p.EvalWindow(w); ok {
		t.Error("window without required types: want not detected")
	}
	// The same window carrying TypeCounts prunes via the O(1) path.
	w.TypeCounts = stream.TypeCounts{{Type: "a", N: 8}}
	if ok, _ := p.EvalWindow(w); ok {
		t.Error("pruned window: want not detected")
	}
}

// TestPlanConcurrentUse exercises one shared plan from many goroutines, as
// the runtime's shards share each epoch's compiled plans; run with -race.
func TestPlanConcurrentUse(t *testing.T) {
	p := mustPlan(t, SeqTypes("a", "b"))
	w := stream.Window{Start: 0, End: 10, Events: []event.Event{
		event.New("a", 1), event.New("x", 2), event.New("b", 3),
	}}
	present := map[event.Type]bool{"a": true, "b": true}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				if !p.EvalIndicators(present) {
					t.Error("indicator answer changed under concurrency")
					return
				}
				if ok, _ := p.EvalWindow(w); !ok {
					t.Error("window answer changed under concurrency")
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

// TestNFAFreeListRecycles pins the run free-list: repeated feeding through
// window expiry must reach a steady state where runs are recycled, and
// detections must be identical to a fresh matcher's.
func TestNFAFreeListRecycles(t *testing.T) {
	seq := SeqTypes("a", "b", "c")
	evs := make([]event.Event, 0, 600)
	rng := rand.New(rand.NewSource(11))
	types := []event.Type{"a", "b", "c", "x"}
	for i := 0; i < 600; i++ {
		evs = append(evs, event.New(types[rng.Intn(len(types))], event.Timestamp(i)))
	}
	recycled, _ := CompileSeq("q", seq, 20)
	got := recycled.FeedAll(evs)
	fresh, _ := CompileSeq("q", seq, 20)
	want := fresh.FeedAll(evs)
	if len(got) != len(want) {
		t.Fatalf("free-list matcher found %d instances, fresh %d", len(got), len(want))
	}
	for i := range want {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("instance %d: %v != %v", i, got[i], want[i])
		}
	}
	if len(recycled.free) == 0 {
		t.Error("window expiry recycled no runs into the free list")
	}
	// Witnesses must not alias recycled run buffers: mutate the matcher
	// further and re-check an early detection.
	snapshot := fmt.Sprint(got[0])
	recycled.FeedAll(evs)
	if fmt.Sprint(got[0]) != snapshot {
		t.Error("detection witness was overwritten by later matching")
	}
}

// TestNFAFreeListMaxRuns pins eviction recycling and the dropped counter
// under a tight maxRuns bound.
func TestNFAFreeListMaxRuns(t *testing.T) {
	m, _ := CompileSeq("q", SeqTypes("a", "b"), 0, WithMaxRuns(4))
	for i := 0; i < 100; i++ {
		m.Feed(event.New("a", event.Timestamp(i)))
	}
	if m.ActiveRuns() != 4 {
		t.Errorf("ActiveRuns = %d, want 4", m.ActiveRuns())
	}
	if m.Dropped() != 96 {
		t.Errorf("Dropped = %d, want 96", m.Dropped())
	}
	if len(m.free) == 0 {
		t.Error("eviction recycled no runs")
	}
	m.Reset()
	if m.ActiveRuns() != 0 || m.Dropped() != 0 {
		t.Errorf("after Reset: runs=%d dropped=%d", m.ActiveRuns(), m.Dropped())
	}
}

// TestPlanDroppedSurfaced checks that a plan's pooled NFA evictions
// aggregate into Plan.Dropped via release.
func TestPlanDroppedSurfaced(t *testing.T) {
	p, err := Compile(Query{Name: "q", Pattern: SeqTypes("a", "b"), Window: 100}, WithMaxRuns(2))
	if err != nil {
		t.Fatal(err)
	}
	w := stream.Window{Start: 0, End: 100}
	for i := 0; i < 50; i++ {
		w.Events = append(w.Events, event.New("a", event.Timestamp(i)))
	}
	w.Events = append(w.Events, event.New("b", 60))
	if ok := p.DetectWindow(w); !ok {
		t.Error("a then b present: want detected")
	}
	if p.Dropped() == 0 {
		t.Error("maxRuns evictions not surfaced through Plan.Dropped")
	}
}

// TestEngineUsesPlans pins the plan-backed engine registry: registration
// compiles, evaluation answers, and RunsDropped aggregates.
func TestEngineUsesPlans(t *testing.T) {
	g := NewEngine()
	if err := g.Register(Query{Name: "q1", Pattern: SeqTypes("a", "b"), Window: 10}); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(Query{Name: "q0", Pattern: NegOf(E("c")), Window: 10}); err != nil {
		t.Fatal(err)
	}
	w := stream.Window{Start: 0, End: 10, Events: []event.Event{
		event.New("a", 1), event.New("b", 2),
	}}
	ds := g.EvaluateWindow(w)
	if len(ds) != 2 || ds[0].Query != "q0" || ds[1].Query != "q1" {
		t.Fatalf("detections = %+v", ds)
	}
	if !ds[0].Detected || !ds[1].Detected {
		t.Errorf("want both detected, got %+v", ds)
	}
	if len(ds[1].Witness.Events) != 2 {
		t.Errorf("seq witness = %v", ds[1].Witness)
	}
	g.Unregister("q1")
	if ds := g.EvaluateWindow(w); len(ds) != 1 {
		t.Fatalf("after unregister: %+v", ds)
	}
}
