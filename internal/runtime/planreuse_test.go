package runtime

import (
	"testing"

	"patterndp/internal/cep"
	"patterndp/internal/core"
)

// planByName returns the control state's compiled plan for the named query.
func planByName(t *testing.T, st *controlState, name string) *cep.Plan {
	t.Helper()
	for i := range st.targets {
		if st.targets[i].Name == name {
			return st.plans[i]
		}
	}
	t.Fatalf("query %q not in control state", name)
	return nil
}

// TestPlanReuseAcrossEpochs is the plan-identity regression test: epochs
// that do not change a query itself — private-set-only changes, and
// registrations of other queries — must carry that query's compiled plan
// pointer forward unchanged, so shards never pay a recompilation for churn
// that does not concern the query.
func TestPlanReuseAcrossEpochs(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Mechanism = nil
	cfg.MechanismFor = func(_ int, private []core.PatternType) (core.Mechanism, error) {
		return core.NewUniformPPM(50, private...)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	base := rt.ctl.Load()
	hasA := planByName(t, base, "has-a")
	seqAB := planByName(t, base, "seq-ab")

	// A private-set-only epoch must reuse the entire plan set (clone carries
	// the slice forward without recompiling).
	commute, err := core.NewPatternType("commute", "c", "d")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RegisterPrivate(commute); err != nil {
		t.Fatal(err)
	}
	st := rt.ctl.Load()
	if got := planByName(t, st, "has-a"); got != hasA {
		t.Error("private-set epoch recompiled has-a")
	}
	if got := planByName(t, st, "seq-ab"); got != seqAB {
		t.Error("private-set epoch recompiled seq-ab")
	}

	// Registering a new query compiles only that query; existing plans keep
	// their identity.
	probe := cep.Query{Name: "probe", Pattern: cep.E("b"), Window: 10}
	if _, err := rt.RegisterQuery(probe); err != nil {
		t.Fatal(err)
	}
	st = rt.ctl.Load()
	if got := planByName(t, st, "has-a"); got != hasA {
		t.Error("query-add epoch recompiled has-a")
	}
	if got := planByName(t, st, "seq-ab"); got != seqAB {
		t.Error("query-add epoch recompiled seq-ab")
	}
	probePlan := planByName(t, st, "probe")
	if probePlan == nil || probePlan.Query().Name != "probe" {
		t.Fatalf("probe plan not compiled: %v", probePlan)
	}

	// Unregistering an unrelated query keeps the others' identity too.
	if _, err := rt.UnregisterQuery(probe); err != nil {
		t.Fatal(err)
	}
	st = rt.ctl.Load()
	if got := planByName(t, st, "has-a"); got != hasA {
		t.Error("query-remove epoch recompiled has-a")
	}

	// Re-registering a query with a new pattern must NOT reuse the stale
	// plan.
	if _, err := rt.RegisterQuery(cep.Query{Name: "has-a", Pattern: cep.E("b"), Window: 10}); err != nil {
		t.Fatal(err)
	}
	st = rt.ctl.Load()
	if got := planByName(t, st, "has-a"); got == hasA {
		t.Error("re-registration reused the stale has-a plan")
	}
	if got := planByName(t, st, "seq-ab"); got != seqAB {
		t.Error("re-registration of has-a recompiled seq-ab")
	}
}
