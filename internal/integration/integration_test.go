// Package integration exercises full pipelines across module boundaries:
// dataset generators → stream windows → CEP engine → mechanisms → metrics.
// These tests pin the end-to-end behaviours the unit tests cannot see.
package integration

import (
	"math"
	"math/rand"
	"testing"

	"patterndp/internal/baseline"
	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/dp"
	"patterndp/internal/event"
	"patterndp/internal/experiment"
	"patterndp/internal/metrics"
	"patterndp/internal/stream"
	"patterndp/internal/synth"
	"patterndp/internal/taxi"
)

// TestTaxiPipelineEndToEnd drives the full taxi path: simulate a fleet, cut
// windows, register single-cell queries, release through the uniform PPM,
// and verify the measured quality sits between the all-noise and no-noise
// extremes.
func TestTaxiPipelineEndToEnd(t *testing.T) {
	cfg := taxi.DefaultConfig(11)
	cfg.GridW, cfg.GridH = 8, 8
	cfg.NumTaxis = 15
	cfg.Ticks = 150
	ds, err := taxi.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	windows := core.IndicatorWindows(ds.Windows(5), ds.AllCellTypes())
	targets := ds.TargetExprs()

	run := func(eps dp.Epsilon) float64 {
		ppm, err := core.NewUniformPPM(eps, ds.PrivateTypes()...)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		released := ppm.Run(rng, windows)
		q, _ := core.MeasuredQuality(windows, released, targets, 0.5)
		return q
	}
	qLow := run(0.05)
	qHigh := run(20)
	if qHigh <= qLow {
		t.Errorf("quality not increasing in budget: q(0.05)=%v q(20)=%v", qLow, qHigh)
	}
	if qHigh < 0.99 {
		t.Errorf("high-budget quality %v, want ~1", qHigh)
	}
	// Even at tiny budget, the non-private majority of target cells keeps
	// quality well above the coin-flip floor.
	if qLow < 0.6 {
		t.Errorf("low-budget quality %v suspiciously low for pattern-level PPM", qLow)
	}
}

// TestSynthAdaptiveBeatsUniformEndToEnd reruns the paper's core comparison
// on a fresh dataset through the public experiment path, not the quality
// oracle: fitted on history, measured on held-out windows.
func TestSynthAdaptiveBeatsUniformEndToEnd(t *testing.T) {
	scfg := synth.DefaultConfig(77)
	b, err := experiment.SynthBench(scfg, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := experiment.RunSweep(b, experiment.SweepConfig{
		Epsilons: []dp.Epsilon{2},
		Specs:    []experiment.MechanismSpec{experiment.SpecUniform, experiment.SpecAdaptive},
		Reps:     5,
		Seed:     3,
		Adaptive: core.AdaptiveConfig{MaxIters: 40, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	byMech := map[experiment.MechanismSpec]float64{}
	for _, r := range rs {
		byMech[r.Mechanism] = r.MRE.Mean
	}
	// Allow a small tolerance: adaptive fits on history, evaluates on
	// held-out windows, so tiny regressions are possible but a large one
	// is a bug.
	if byMech[experiment.SpecAdaptive] > byMech[experiment.SpecUniform]+0.02 {
		t.Errorf("adaptive MRE %v much worse than uniform %v",
			byMech[experiment.SpecAdaptive], byMech[experiment.SpecUniform])
	}
}

// TestParsedQueryThroughPrivateEngine goes text → parser → private engine →
// answers, the full consumer-facing path.
func TestParsedQueryThroughPrivateEngine(t *testing.T) {
	q, err := cep.ParseQuery("jam", "SEQ(near-hospital, slow) WITHIN 10", 10)
	if err != nil {
		t.Fatal(err)
	}
	private, err := core.NewPatternType("trip", "enter-taxi", "near-hospital")
	if err != nil {
		t.Fatal(err)
	}
	ppm, err := core.NewUniformPPM(30, private)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := core.NewPrivateEngine(ppm, []core.PatternType{private}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := pe.RegisterTarget(q); err != nil {
		t.Fatal(err)
	}
	answers, err := pe.ProcessEvents([]event.Event{
		event.New("enter-taxi", 1),
		event.New("near-hospital", 2),
		event.New("slow", 3),
	}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 || !answers[0].Detected {
		t.Errorf("answers = %+v", answers)
	}
}

// TestBaselinesThroughPrivateEngine runs every baseline mechanism through
// the same PrivateEngine service path as the PPMs.
func TestBaselinesThroughPrivateEngine(t *testing.T) {
	private, _ := core.NewPatternType("p", "a")
	mechs := []func() (core.Mechanism, error){
		func() (core.Mechanism, error) {
			return baseline.NewBudgetDistribution(baseline.WEventConfig{
				PatternEpsilon: 100, W: 4, Private: []core.PatternType{private}})
		},
		func() (core.Mechanism, error) {
			return baseline.NewBudgetAbsorption(baseline.WEventConfig{
				PatternEpsilon: 100, W: 4, Private: []core.PatternType{private}})
		},
		func() (core.Mechanism, error) {
			return baseline.NewLandmark(baseline.LandmarkConfig{
				PatternEpsilon: 100, Private: []core.PatternType{private}})
		},
		func() (core.Mechanism, error) {
			return baseline.NewWEventUniform(baseline.WEventConfig{
				PatternEpsilon: 100, W: 4, Private: []core.PatternType{private}})
		},
	}
	evs := []event.Event{event.New("a", 1), event.New("b", 12), event.New("a", 21)}
	for _, build := range mechs {
		mech, err := build()
		if err != nil {
			t.Fatal(err)
		}
		pe, err := core.NewPrivateEngine(mech, []core.PatternType{private}, 9)
		if err != nil {
			t.Fatal(err)
		}
		pe.RegisterTarget(cep.Query{Name: "t", Pattern: cep.E("a"), Window: 10})
		answers, err := pe.ProcessEvents(evs, 10)
		if err != nil {
			t.Fatalf("%s: %v", mech.Name(), err)
		}
		if len(answers) != 3 {
			t.Fatalf("%s: answers = %d", mech.Name(), len(answers))
		}
	}
}

// TestTraceLoaderFeedsExperiment goes T-Drive text → loader → dataset →
// bench-style measurement.
func TestTraceLoaderFeedsExperiment(t *testing.T) {
	// Synthesize a "real" trace from the simulator, serialize to the
	// T-Drive line format via cell centers, and reload it.
	simCfg := taxi.DefaultConfig(21)
	simCfg.GridW, simCfg.GridH = 6, 6
	simCfg.NumTaxis = 8
	simCfg.Ticks = 60
	sim, err := taxi.Generate(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Build dataset directly from simulated events (the loader path for
	// pre-parsed events).
	ds, err := taxi.DatasetFromEvents(sim.Events, simCfg)
	if err != nil {
		t.Fatal(err)
	}
	windows := core.IndicatorWindows(ds.Windows(5), ds.AllCellTypes())
	if len(windows) == 0 {
		t.Fatal("no windows from loaded dataset")
	}
	ppm, err := core.NewUniformPPM(5, ds.PrivateTypes()...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	released := ppm.Run(rng, windows)
	q, conf := core.MeasuredQuality(windows, released, ds.TargetExprs(), 0.5)
	if conf.Total() == 0 {
		t.Fatal("no measurements")
	}
	if q <= 0 || q > 1 {
		t.Errorf("quality = %v", q)
	}
}

// TestMergedStreamsThroughWindows checks Fig. 1's construction: two data
// streams merge into one event stream, windows form, and indicators agree
// with per-stream contents.
func TestMergedStreamsThroughWindows(t *testing.T) {
	done := make(chan struct{})
	defer close(done)
	s1 := stream.FromSlice([]event.Event{
		event.New("a", 1).WithSource("s1"), event.New("a", 11).WithSource("s1"),
	})
	s2 := stream.FromSlice([]event.Event{
		event.New("b", 2).WithSource("s2"), event.New("b", 12).WithSource("s2"),
	})
	merged := stream.Collect(stream.MergeEvents(done, s1, s2))
	ws := stream.WindowSlice(merged, 10)
	if len(ws) != 2 {
		t.Fatalf("windows = %d", len(ws))
	}
	iws := core.IndicatorWindows(ws, []event.Type{"a", "b"})
	for i, iw := range iws {
		if !iw.Present["a"] || !iw.Present["b"] {
			t.Errorf("window %d indicators = %v", i, iw.Present)
		}
	}
}

// TestMetricsAgreeWithExpectedQuality verifies that the analytic oracle
// converges to measured quality as repetitions grow (law of large numbers
// over windows).
func TestMetricsAgreeWithExpectedQuality(t *testing.T) {
	scfg := synth.DefaultConfig(31)
	scfg.NumWindows = 400
	ds, err := synth.Generate(scfg)
	if err != nil {
		t.Fatal(err)
	}
	wins := ds.IndicatorWindows()
	targets := ds.TargetExprs()
	private := ds.PrivateTypes()
	ppm, err := core.NewUniformPPM(1.5, private...)
	if err != nil {
		t.Fatal(err)
	}
	expected := core.ExpectedQuality(wins, targets, ppm.FlipProbs(), 0.5, nil)

	var qs []float64
	for rep := 0; rep < 10; rep++ {
		rng := rand.New(rand.NewSource(int64(rep)))
		released := ppm.Run(rng, wins)
		q, _ := core.MeasuredQuality(wins, released, targets, 0.5)
		qs = append(qs, q)
	}
	measured := metrics.Mean(qs)
	if math.Abs(expected-measured) > 0.05 {
		t.Errorf("expected quality %v vs measured mean %v", expected, measured)
	}
}
