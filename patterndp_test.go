package patterndp

import (
	"fmt"
	"sync"
	"testing"
)

// TestPublicAPIEndToEnd exercises the documented quickstart path through the
// public surface only.
func TestPublicAPIEndToEnd(t *testing.T) {
	private, err := NewPatternType("hospital-trip", "enter-taxi", "near-hospital")
	if err != nil {
		t.Fatal(err)
	}
	ppm, err := NewUniformPPM(40, private) // huge budget: near-deterministic
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewPrivateEngine(ppm, []PatternType{private}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.RegisterTarget(Query{
		Name:    "traffic-jam",
		Pattern: SeqTypes("near-hospital", "slow-speed"),
		Window:  10,
	}); err != nil {
		t.Fatal(err)
	}
	events := []Event{
		NewEvent("enter-taxi", 1),
		NewEvent("near-hospital", 3),
		NewEvent("slow-speed", 5),
		NewEvent("enter-taxi", 12),
	}
	answers, err := engine.ProcessEvents(events, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 2 {
		t.Fatalf("answers = %d, want 2 windows", len(answers))
	}
	if !answers[0].Detected {
		t.Error("window 0 should detect the traffic jam at high budget")
	}
	if answers[1].Detected {
		t.Error("window 1 has no jam")
	}
}

func TestPublicExpressionBuilders(t *testing.T) {
	e := SeqOf(E("a"), AndOf(E("b"), NegOf(E("c"))), OrOf(E("d"), E("e")))
	if len(e.Types()) != 5 {
		t.Errorf("Types = %v", e.Types())
	}
}

func TestPublicValuesAndWindows(t *testing.T) {
	ev := NewEvent("a", 1).
		WithAttr("i", Int(1)).
		WithAttr("f", Float(2.5)).
		WithAttr("s", String("x")).
		WithAttr("b", Bool(true))
	if len(ev.Attrs) != 4 {
		t.Error("attrs lost")
	}
	ws := WindowSlice([]Event{NewEvent("a", 0), NewEvent("b", 12)}, 10)
	if len(ws) != 2 {
		t.Fatalf("windows = %d", len(ws))
	}
	iws := IndicatorWindows(ws, []EventType{"a", "b"})
	if !iws[0].Present["a"] || iws[0].Present["b"] {
		t.Error("indicators wrong")
	}
}

func TestPublicAdaptivePath(t *testing.T) {
	private, _ := NewPatternType("p", "a", "b")
	hist := IndicatorWindows(WindowSlice([]Event{
		NewEvent("a", 0), NewEvent("b", 1),
		NewEvent("a", 10),
		NewEvent("b", 21),
	}, 10), []EventType{"a", "b"})
	ppm, err := NewAdaptivePPM(
		AdaptiveConfig{Epsilon: 1, Alpha: 0.5, MaxIters: 3},
		hist, []Expr{SeqTypes("a", "b")}, private)
	if err != nil {
		t.Fatal(err)
	}
	if ppm.TotalEpsilon() != 1 {
		t.Error("budget lost")
	}
}

// TestPublicRuntimeEndToEnd exercises the streaming serving layer through
// the public surface only: concurrent producers, per-query subscription,
// graceful drain, and the snapshot counters.
func TestPublicRuntimeEndToEnd(t *testing.T) {
	private, err := NewPatternType("hospital-trip", "enter-taxi", "near-hospital")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(RuntimeConfig{
		Shards:      4,
		WindowWidth: 10,
		Mechanism: func(int) (Mechanism, error) {
			return NewUniformPPM(40, private) // huge budget: near-deterministic
		},
		Private: []PatternType{private},
		Targets: []Query{{
			Name:    "traffic-jam",
			Pattern: SeqTypes("near-hospital", "slow-speed"),
			Window:  10,
		}},
		Seed:     1,
		Lateness: ReorderBuffer, AllowedLateness: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("traffic-jam")
	if err != nil {
		t.Fatal(err)
	}
	detected := make(map[string][]bool)
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for a := range sub.C() {
			detected[a.Stream] = append(detected[a.Stream], a.Detected)
		}
	}()
	const streams = 4
	var producers sync.WaitGroup
	for i := 0; i < streams; i++ {
		producers.Add(1)
		go func(i int) {
			defer producers.Done()
			key := fmt.Sprintf("taxi-%d", i)
			for _, e := range []Event{
				NewEvent("near-hospital", 3).WithSource(key),
				NewEvent("slow-speed", 5).WithSource(key),
				NewEvent("enter-taxi", 12).WithSource(key),
			} {
				if err := rt.Ingest(e); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	producers.Wait()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	consumer.Wait()
	if len(detected) != streams {
		t.Fatalf("streams answered = %d, want %d", len(detected), streams)
	}
	for key, ds := range detected {
		if len(ds) != 2 || !ds[0] || ds[1] {
			t.Errorf("stream %s detections = %v, want [true false]", key, ds)
		}
	}
	tot := rt.Snapshot().Totals()
	if tot.EventsIn != 3*streams || tot.WindowsClosed != 2*streams {
		t.Errorf("totals = %+v", tot)
	}
	if err := rt.Ingest(NewEvent("x", 1)); err != ErrRuntimeClosed {
		t.Errorf("Ingest after Close = %v, want ErrRuntimeClosed", err)
	}
}

// TestPublicRuntimeControlPlane is the control-plane acceptance scenario
// through the public surface: while traffic flows, add a private pattern
// type, add a query, subscribe to it, cancel the subscription, and
// unregister the query — all without restarting, with every answer's epoch
// naming a query set that contained its query.
func TestPublicRuntimeControlPlane(t *testing.T) {
	private, err := NewPatternType("hospital-trip", "enter-taxi", "near-hospital")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(RuntimeConfig{
		Shards:      4,
		WindowWidth: 10,
		MechanismFor: func(_ int, private []PatternType) (Mechanism, error) {
			return NewUniformPPM(40, private...)
		},
		Private: []PatternType{private},
		Targets: []Query{{Name: "jam", Pattern: SeqTypes("near-hospital", "slow-speed"), Window: 10}},
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Background traffic across 4 streams while the control plane churns.
	stop := make(chan struct{})
	var producers sync.WaitGroup
	for i := 0; i < 4; i++ {
		producers.Add(1)
		go func(i int) {
			defer producers.Done()
			key := fmt.Sprintf("taxi-%d", i)
			for ts := Timestamp(0); ; ts += 5 {
				select {
				case <-stop:
					return
				default:
				}
				if err := rt.Ingest(NewEvent("near-hospital", ts).WithSource(key)); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}

	// A new data subject registers a private pattern type...
	commute, err := NewPatternType("commute", "enter-taxi", "near-office")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RegisterPrivate(commute); err != nil {
		t.Fatal(err)
	}
	// ...and a new data consumer registers a query and subscribes.
	epQ, err := rt.RegisterQuery(Query{Name: "near-hosp", Pattern: E("near-hospital"), Window: 10})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("near-hosp")
	if err != nil {
		t.Fatal(err)
	}
	var got []RuntimeAnswer
	for a := range sub.C() {
		if a.Epoch < epQ {
			t.Errorf("answer for %q under epoch %d, before its registration epoch %d", a.Query, a.Epoch, epQ)
		}
		got = append(got, a)
		if len(got) == 8 {
			break
		}
	}
	// The consumer is done: cancel and unregister, serving keeps going.
	sub.Cancel()
	if sub.Err() != ErrSubscriptionCancelled {
		t.Errorf("Err after Cancel = %v, want ErrSubscriptionCancelled", sub.Err())
	}
	epU, err := rt.UnregisterQuery(Query{Name: "near-hosp"})
	if err != nil {
		t.Fatal(err)
	}
	if epU <= epQ {
		t.Errorf("epochs not monotonic: register %d, unregister %d", epQ, epU)
	}
	close(stop)
	producers.Wait()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("answers on the live-registered query = %d, want 8", len(got))
	}
}

// TestPublicRuntimeBudget exercises the privacy-accounting surface through
// the facade: RuntimeConfig.Budget/BudgetPolicy, per-answer budget stamps,
// RuntimeStats.Budget, and Runtime.RotateBudget.
func TestPublicRuntimeBudget(t *testing.T) {
	private, err := NewPatternType("p", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(RuntimeConfig{
		Shards:      1,
		WindowWidth: 10,
		Mechanism: func(int) (Mechanism, error) {
			return NewUniformPPM(1, private)
		},
		Private:      []PatternType{private},
		Targets:      []Query{{Name: "q", Pattern: E("a"), Window: 10}},
		Seed:         1,
		Budget:       2, // two released windows per stream per epoch
		BudgetPolicy: BudgetSuppress,
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("q")
	if err != nil {
		t.Fatal(err)
	}
	var got []RuntimeAnswer
	for w := 0; w < 5; w++ {
		if err := rt.Ingest(NewEvent("a", Timestamp(w*10+1)).WithSource("s")); err != nil {
			t.Fatal(err)
		}
		if w >= 1 {
			got = append(got, <-sub.C())
		}
	}
	if _, err := rt.RotateBudget(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Ingest(NewEvent("a", 51).WithSource("s")); err != nil {
		t.Fatal(err)
	}
	got = append(got, <-sub.C())
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	for a := range sub.C() {
		got = append(got, a)
	}
	var released, suppressed int
	for _, a := range got {
		if a.Suppressed {
			suppressed++
			continue
		}
		released++
		if a.SpentEpsilon <= 0 || a.SpentEpsilon > 2 {
			t.Errorf("answer window %d SpentEpsilon = %v", a.WindowIndex, a.SpentEpsilon)
		}
	}
	// Two per epoch: windows 0-1 on the construction grant, then the
	// rotation's fresh grant covers two more.
	if released != 4 || suppressed != 2 {
		t.Fatalf("released/suppressed = %d/%d, want 4/2", released, suppressed)
	}
	st := rt.Snapshot()
	if st.Budget == nil {
		t.Fatal("RuntimeStats.Budget nil with accounting on")
	}
	if st.Budget.Policy != BudgetSuppress || st.Budget.Grant != 2 || st.Budget.Charge != 1 {
		t.Fatalf("budget snapshot %+v", st.Budget)
	}
	if st.Budget.Rotations != 1 {
		t.Fatalf("Rotations = %d", st.Budget.Rotations)
	}
	if len(st.Budget.PerQuery) != 1 || st.Budget.PerQuery[0].Query != "q" {
		t.Fatalf("PerQuery = %+v", st.Budget.PerQuery)
	}
}
