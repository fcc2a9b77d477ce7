package patterndp

import (
	"errors"
	"math/rand"
	"testing"

	"patterndp/internal/baseline"
	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/event"
	"patterndp/internal/runtime"
	"patterndp/internal/stream"
)

// runOnlyMechanism exposes nothing but the Mechanism interface of the PPM it
// wraps: a custom mechanism the engine has no flip table for.
type runOnlyMechanism struct{ core.Mechanism }

// identityOverride embeds Identity, so it inherits Identity's (empty) flip
// table, but replaces Run: the engine must not serve it as Identity.
type identityOverride struct{ core.Identity }

func (identityOverride) Run(_ *rand.Rand, wins []core.IndicatorWindow) []map[event.Type]bool {
	return make([]map[event.Type]bool, len(wins))
}

// TestServedMechanismContract: the engine serves exactly the per-window flip
// tables — UniformPPM, AdaptivePPM and Identity — and every way of building
// one refuses any other mechanism with ErrUnservedMechanism: the engine
// itself, runtime.New, a MechanismFor rebuild after RegisterPrivate, and the
// facade's NewRuntime.
func TestServedMechanismContract(t *testing.T) {
	private, err := core.NewPatternType("p", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	wcfg := baseline.WEventConfig{PatternEpsilon: 1, W: 4, Private: []core.PatternType{private}}
	uni, err := core.NewUniformPPM(1, private)
	if err != nil {
		t.Fatal(err)
	}
	history := core.IndicatorWindows(stream.WindowSlice([]event.Event{
		event.New("a", 1), event.New("b", 2), event.New("a", 11), event.New("c", 21),
	}, 10), []event.Type{"a", "b", "c"})
	targets := []cep.Query{{Name: "has-a", Pattern: cep.E("a"), Window: 10}}
	build := map[string]func() (core.Mechanism, error){
		"uniform": func() (core.Mechanism, error) { return uni, nil },
		"adaptive": func() (core.Mechanism, error) {
			return core.NewAdaptivePPM(core.AdaptiveConfig{Epsilon: 1, Alpha: 0.5}, history, []cep.Expr{cep.E("a")}, private)
		},
		"identity":        func() (core.Mechanism, error) { return core.Identity{}, nil },
		"bd":              func() (core.Mechanism, error) { return baseline.NewBudgetDistribution(wcfg) },
		"ba":              func() (core.Mechanism, error) { return baseline.NewBudgetAbsorption(wcfg) },
		"wevent-uniform":  func() (core.Mechanism, error) { return baseline.NewWEventUniform(wcfg) },
		"wevent-sample":   func() (core.Mechanism, error) { return baseline.NewWEventSample(wcfg) },
		"count":           func() (core.Mechanism, error) { return core.NewCountPPM(1, private) },
		"run-only":        func() (core.Mechanism, error) { return runOnlyMechanism{uni}, nil },
		"identity-embeds": func() (core.Mechanism, error) { return identityOverride{}, nil },
		"landmark": func() (core.Mechanism, error) {
			return baseline.NewLandmark(baseline.LandmarkConfig{PatternEpsilon: 1, Private: []core.PatternType{private}})
		},
	}
	served := map[string]bool{"uniform": true, "adaptive": true, "identity": true}
	for name, mk := range build {
		m, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		static := runtime.Config{
			Shards:      1,
			WindowWidth: 10,
			Mechanism:   func(int) (core.Mechanism, error) { return m, nil },
			Private:     []core.PatternType{private},
			Targets:     targets,
		}
		// The rebuild case starts on the uniform PPM and switches to m at
		// the first private-set epoch.
		rebuild := static
		rebuild.Mechanism = nil
		rebuild.MechanismFor = func(_ int, ps []core.PatternType) (core.Mechanism, error) {
			if len(ps) == 1 {
				return uni, nil
			}
			return m, nil
		}
		check := func(surface string, err error) {
			t.Helper()
			if served[name] && err != nil {
				t.Errorf("%s: %s refused a served mechanism: %v", name, surface, err)
			}
			if !served[name] && !errors.Is(err, ErrUnservedMechanism) {
				t.Errorf("%s: %s = %v, want ErrUnservedMechanism", name, surface, err)
			}
		}

		_, err = core.NewPrivateEngine(m, []core.PatternType{private}, 1)
		check("core.NewPrivateEngine", err)
		_, err = NewPrivateEngine(m, []PatternType{private}, 1)
		check("NewPrivateEngine", err)
		check("runtime.New", closeIfBuilt(runtime.New(static)))
		check("NewRuntime", closeIfBuilt(NewRuntime(static)))

		rt, err := runtime.New(rebuild)
		if err != nil {
			t.Fatalf("%s: runtime.New on the uniform PPM: %v", name, err)
		}
		extra, err := core.NewPatternType("q", "c")
		if err != nil {
			t.Fatal(err)
		}
		// a@1 opens window 0; the RegisterPrivate epoch is applied when
		// a@11 closes it, and the shard rebuilds through MechanismFor.
		if err := rt.Ingest(event.New("a", 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.RegisterPrivate(extra); err != nil {
			t.Fatal(err)
		}
		rt.Ingest(event.New("a", 11)) //nolint:errcheck // a failed rebuild surfaces at Close
		check("MechanismFor rebuild", rt.Close())
	}
}

// closeIfBuilt closes a runtime that New built and returns New's error, or
// the runtime's Close error when New succeeded.
func closeIfBuilt(rt *runtime.Runtime, err error) error {
	if err != nil {
		return err
	}
	return rt.Close()
}
