package core_test

import (
	"testing"

	"patterndp/internal/core"
	"patterndp/internal/event"
	"patterndp/internal/experiment"
	"patterndp/internal/synth"
)

// TestAdaptivePPMAuditHolds audits the split Algorithm 1 fits, not only the
// uniform one: an AdaptivePPM fitted on an Algorithm 2 dataset at ε = 1 moves
// budget between elements, and on every private pattern its full-pattern
// ratio stays within ε plus the audit's usual slack. The trial count is the
// one the serve audit floors at; the audit is seeded, so the result repeats.
func TestAdaptivePPMAuditHolds(t *testing.T) {
	const eps, slack, trials = 1.0, 0.1, 20000
	bench, err := experiment.SynthBench(synth.DefaultConfig(1), 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mech, err := bench.BuildMechanism(experiment.SpecAdaptive, eps, core.AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a := mech.(*core.AdaptivePPM)
	uniform := true
	aud := core.Auditor{Trials: trials, Seed: 1}
	for k, pt := range a.Private() {
		parts := a.Distribution(k).Parts()
		for _, part := range parts {
			uniform = uniform && part == parts[0]
		}
		results, err := aud.AuditPattern(a, pt, map[event.Type]bool{"public": true}, eps)
		if err != nil {
			t.Fatal(err)
		}
		if v := core.Summarize(results, slack); !v.Pass {
			t.Errorf("pattern %s, split %v: full-pattern ratio %.4f exceeds ε = %v + %v", pt.Name, parts, v.FullPattern, eps, slack)
		}
	}
	if uniform {
		t.Error("the fit split every pattern uniformly: the audit certified nothing the uniform PPM's does not")
	}
}
