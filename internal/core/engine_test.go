package core

import (
	"slices"
	"testing"

	"patterndp/internal/cep"
	"patterndp/internal/event"
	"patterndp/internal/stream"
)

func TestNewPrivateEngineValidation(t *testing.T) {
	pt := mustPT(t, "p", "a")
	if _, err := NewPrivateEngine(nil, []PatternType{pt}, 1); err == nil {
		t.Error("nil mechanism accepted")
	}
	if _, err := NewPrivateEngine(Identity{}, nil, 1); err == nil {
		t.Error("no private patterns accepted")
	}
}

func TestPrivateEngineIdentityRoundTrip(t *testing.T) {
	pt := mustPT(t, "priv", "a", "b")
	pe, err := NewPrivateEngine(Identity{}, []PatternType{pt}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pe.RegisterTarget(cep.Query{Name: "tgt", Pattern: cep.SeqTypes("a", "c"), Window: 10}); err != nil {
		t.Fatal(err)
	}
	if err := pe.RegisterTarget(cep.Query{Name: "", Pattern: cep.E("a"), Window: 10}); err == nil {
		t.Error("invalid target accepted")
	}
	evs := []event.Event{
		event.New("a", 1), event.New("c", 2), // window 0: tgt detected
		event.New("a", 11), // window 1: not detected
	}
	answers, err := pe.ProcessEvents(evs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 2 {
		t.Fatalf("answers = %d, want 2", len(answers))
	}
	if !answers[0].Detected || answers[0].Query != "tgt" || answers[0].WindowIndex != 0 {
		t.Errorf("answer 0 = %+v", answers[0])
	}
	if answers[1].Detected {
		t.Errorf("answer 1 = %+v", answers[1])
	}
}

func TestPrivateEngineNoTargets(t *testing.T) {
	pt := mustPT(t, "priv", "a")
	pe, _ := NewPrivateEngine(Identity{}, []PatternType{pt}, 1)
	if _, err := pe.ProcessWindows([]stream.Window{{}}); err == nil {
		t.Error("processing without targets accepted")
	}
}

func TestPrivateEngineWithUniformPPM(t *testing.T) {
	// Huge budget: perturbation negligible, answers should match truth.
	pt := mustPT(t, "priv", "a")
	u, err := NewUniformPPM(50, pt)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := NewPrivateEngine(u, []PatternType{pt}, 7)
	if err != nil {
		t.Fatal(err)
	}
	pe.RegisterTarget(cep.Query{Name: "tgt", Pattern: cep.E("a"), Window: 10})
	evs := []event.Event{event.New("a", 1), event.New("x", 11)}
	answers, err := pe.ProcessEvents(evs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !answers[0].Detected || answers[1].Detected {
		t.Errorf("high-budget answers diverge from truth: %+v", answers)
	}
}

// answeredQueries lists the queries one window is answered for, in answer
// order: the registered targets as the service phase sees them.
func answeredQueries(t *testing.T, pe *PrivateEngine) []string {
	t.Helper()
	answers, err := pe.ProcessWindows([]stream.Window{{Start: 0, End: 10}})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(answers))
	for i, a := range answers {
		names[i] = a.Query
	}
	return names
}

func TestPrivateEngineTargetsSorted(t *testing.T) {
	pt := mustPT(t, "priv", "a")
	pe, _ := NewPrivateEngine(Identity{}, []PatternType{pt}, 1)
	pe.RegisterTarget(cep.Query{Name: "zz", Pattern: cep.E("a"), Window: 10})
	pe.RegisterTarget(cep.Query{Name: "aa", Pattern: cep.E("b"), Window: 10})
	if got := answeredQueries(t, pe); !slices.Equal(got, []string{"aa", "zz"}) {
		t.Errorf("answered queries = %v, want [aa zz]", got)
	}
}

// TestPrivateEngineSetTargets: the bulk setter replaces every registered
// target, and a refused set leaves the registered one in place.
func TestPrivateEngineSetTargets(t *testing.T) {
	pt := mustPT(t, "priv", "a")
	pe, _ := NewPrivateEngine(Identity{}, []PatternType{pt}, 1)
	pe.RegisterTarget(cep.Query{Name: "old", Pattern: cep.E("a"), Window: 10})
	if err := pe.SetTargetPlans(compileAll(
		cep.Query{Name: "zz", Pattern: cep.E("a"), Window: 10},
		cep.Query{Name: "aa", Pattern: cep.E("b"), Window: 10},
	)); err != nil {
		t.Fatal(err)
	}
	if got := answeredQueries(t, pe); !slices.Equal(got, []string{"aa", "zz"}) {
		t.Fatalf("answered queries after SetTargetPlans = %v, want [aa zz]", got)
	}
	if err := pe.SetTargetPlans(append(compileAll(cep.Query{Name: "x", Pattern: cep.E("a"), Window: 10}), nil)); err == nil {
		t.Error("set with a nil plan accepted")
	}
	if got := answeredQueries(t, pe); !slices.Equal(got, []string{"aa", "zz"}) {
		t.Errorf("failed SetTargetPlans mutated the target set: %v", got)
	}
}

// compileAll compiles each query, for SetTargetPlans.
func compileAll(qs ...cep.Query) []*cep.Plan {
	plans := make([]*cep.Plan, len(qs))
	for i, q := range qs {
		plans[i] = cep.MustCompile(q)
	}
	return plans
}

func TestRelevantTypesUnion(t *testing.T) {
	pt := mustPT(t, "priv", "a", "b")
	pe, _ := NewPrivateEngine(Identity{}, []PatternType{pt}, 1)
	pe.RegisterTarget(cep.Query{Name: "t", Pattern: cep.SeqTypes("b", "c"), Window: 5})
	types := pe.snapshot().types
	if len(types) != 3 {
		t.Fatalf("relevantTypes = %v", types)
	}
	want := []event.Type{"a", "b", "c"}
	for i := range want {
		if types[i] != want[i] {
			t.Errorf("relevantTypes = %v, want %v", types, want)
		}
	}
}

// TestSetTargetPlansUnsorted asserts that plans handed in out of name order
// are paired with their own queries, not positionally.
func TestSetTargetPlansUnsorted(t *testing.T) {
	pt := mustPT(t, "priv", "a")
	pe, _ := NewPrivateEngine(Identity{}, []PatternType{pt}, 1)
	planB := cep.MustCompile(cep.Query{Name: "bb", Pattern: cep.E("b"), Window: 10})
	planA := cep.MustCompile(cep.Query{Name: "aa", Pattern: cep.E("a"), Window: 10})
	if err := pe.SetTargetPlans([]*cep.Plan{planB, planA}); err != nil {
		t.Fatal(err)
	}
	answers, err := pe.ProcessEvents([]event.Event{event.New("a", 1)}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 2 {
		t.Fatalf("answers = %+v", answers)
	}
	// The window holds only "a": query aa must detect, bb must not. A
	// positional mispairing would flip both.
	if answers[0].Query != "aa" || !answers[0].Detected {
		t.Errorf("answer 0 = %+v, want aa detected", answers[0])
	}
	if answers[1].Query != "bb" || answers[1].Detected {
		t.Errorf("answer 1 = %+v, want bb not detected", answers[1])
	}
	if err := pe.SetTargetPlans([]*cep.Plan{nil}); err == nil {
		t.Error("nil plan accepted")
	}
}
