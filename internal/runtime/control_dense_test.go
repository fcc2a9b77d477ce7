package runtime

import (
	"math/rand"
	"testing"

	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/event"
)

// runOnly exposes only the Mechanism interface of the PPM it wraps, so the
// engine built on it serves through the generic Mechanism.Run path.
type runOnly struct{ core.Mechanism }

// controlScenario serves one stream through three control-plane epochs — the
// construction state, a RegisterQuery, a RegisterPrivate — and returns every
// answer in delivery order. Each change is made only after every answer owed
// by the windows closed so far has arrived, so the window at which the shard
// picks it up does not depend on scheduling.
func controlScenario(t *testing.T, wrap func(core.Mechanism) core.Mechanism) []Answer {
	t.Helper()
	cfg := testConfig(t, 1)
	cfg.Mechanism = nil
	// ε = 1: flips are frequent, so a path that drew differently would
	// release different bits.
	cfg.MechanismFor = func(_ int, private []core.PatternType) (core.Mechanism, error) {
		m, err := core.NewUniformPPM(1, private...)
		if err != nil {
			return nil, err
		}
		return wrap(m), nil
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rt.Subscribe("")
	if err != nil {
		t.Fatal(err)
	}
	const phaseWindows = 20
	// Sized to every answer the scenario can release (3 phases, at most 3
	// queries), so the forwarder never blocks serving.
	answers := make(chan Answer, 3*phaseWindows*3)
	go func() {
		defer close(answers)
		for a := range sub.C() {
			answers <- a
		}
	}()

	var got []Answer
	rng := rand.New(rand.NewSource(11))
	types := []event.Type{"a", "b", "c", "d"}
	next := 0
	// ingestPhase feeds phaseWindows more windows and waits for the answers
	// of the windows this closes: all but the newest one, which stays open.
	ingestPhase := func(queries int) {
		t.Helper()
		closedBefore := max(next-1, 0)
		for end := next + phaseWindows; next < end; next++ {
			// Every window opens with an "a", then two random types.
			for i, typ := range []event.Type{"a", types[rng.Intn(len(types))], types[rng.Intn(len(types))]} {
				e := event.New(typ, event.Timestamp(next*10+i)).WithSource("s")
				if err := rt.Ingest(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		for owed := (next - 1 - closedBefore) * queries; owed > 0; owed-- {
			got = append(got, <-answers)
		}
	}

	ingestPhase(2)
	if _, err := rt.RegisterQuery(cep.Query{Name: "or-cd", Pattern: cep.OrOf(cep.E("c"), cep.NegOf(cep.E("d"))), Window: 10}); err != nil {
		t.Fatal(err)
	}
	ingestPhase(3)
	pt, err := core.NewPatternType("priv2", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RegisterPrivate(pt); err != nil {
		t.Fatal(err)
	}
	ingestPhase(3)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	for a := range answers {
		got = append(got, a)
	}
	return got
}

// TestControlPlaneRebindsDensePath is the control-plane half of the dense
// path's differential test: RegisterQuery and RegisterPrivate mid-stream
// rebuild the epoch's type table, flip positions and bound plans, and every
// answer before and after each epoch equals the generic path's on the same
// seed.
func TestControlPlaneRebindsDensePath(t *testing.T) {
	dense := controlScenario(t, func(m core.Mechanism) core.Mechanism { return m })
	oracle := controlScenario(t, func(m core.Mechanism) core.Mechanism { return runOnly{m} })
	if len(dense) != len(oracle) || len(dense) == 0 {
		t.Fatalf("dense released %d answers, generic %d", len(dense), len(oracle))
	}
	epochs := map[Epoch]bool{}
	flipped := 0
	for i := range dense {
		d, o := dense[i], oracle[i]
		if d.Query != o.Query || d.WindowIndex != o.WindowIndex || d.Epoch != o.Epoch || d.Detected != o.Detected {
			t.Fatalf("answer %d: dense %s/%d epoch %d = %t, generic %s/%d epoch %d = %t",
				i, d.Query, d.WindowIndex, d.Epoch, d.Detected, o.Query, o.WindowIndex, o.Epoch, o.Detected)
		}
		epochs[d.Epoch] = true
		if d.Query == "has-a" && !d.Detected {
			flipped++
		}
	}
	if len(epochs) != 3 {
		t.Errorf("answers span epochs %v, want 3", epochs)
	}
	// Every window holds an "a": at ε = 1 some has-a answers must have
	// flipped, or the comparison above exercised no perturbation.
	if flipped == 0 {
		t.Error("no has-a answer was perturbed at ε = 1")
	}
}
