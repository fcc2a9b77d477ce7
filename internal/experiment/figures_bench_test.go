package experiment

// One benchmark per figure of the paper's evaluation (Fig. 3 and both halves
// of Fig. 4). Each prints the regenerated series once, so `go test -bench=.`
// both measures and reports. They run a reduced-but-faithful configuration
// (fewer repetitions/datasets than the paper's 1000) so a bench run stays in
// minutes; cmd/paperfigs runs the same code at any scale.

import (
	"os"
	"sync"
	"testing"

	"patterndp/internal/dp"
	"patterndp/internal/synth"
)

var (
	printTaxiOnce  sync.Once
	printSynthOnce sync.Once
	printFig3Once  sync.Once
)

// benchFig4Config is the reduced Fig. 4 configuration used by benchmarks.
func benchFig4Config() Fig4Config {
	cfg := DefaultFig4Config(1)
	cfg.Reps = 2
	cfg.SynthDatasets = 2
	cfg.TaxiCfg.GridW, cfg.TaxiCfg.GridH = 10, 10
	cfg.TaxiCfg.NumTaxis = 30
	cfg.TaxiCfg.Ticks = 300
	cfg.Adaptive.MaxIters = 10
	scfg := synth.DefaultConfig(0)
	scfg.NumWindows = 400
	cfg.SynthCfg = scfg
	return cfg
}

// BenchmarkFig4Taxi regenerates Fig. 4 (left): MRE vs ε on the Taxi dataset
// for uniform, adaptive, BD, BA and landmark.
func BenchmarkFig4Taxi(b *testing.B) {
	cfg := benchFig4Config()
	for i := 0; i < b.N; i++ {
		rs, err := Fig4Taxi(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printTaxiOnce.Do(func() {
			b.StopTimer()
			WriteTable(os.Stdout, "\nFig. 4 (left): MRE vs eps — Taxi", rs)
			b.StartTimer()
		})
	}
}

// BenchmarkFig4Synthetic regenerates Fig. 4 (right): MRE vs ε averaged over
// synthetic datasets from Algorithm 2.
func BenchmarkFig4Synthetic(b *testing.B) {
	cfg := benchFig4Config()
	for i := 0; i < b.N; i++ {
		rs, err := Fig4Synthetic(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printSynthOnce.Do(func() {
			b.StopTimer()
			WriteTable(os.Stdout, "\nFig. 4 (right): MRE vs eps — synthetic", rs)
			b.StartTimer()
		})
	}
}

// BenchmarkFig3BudgetSplit regenerates the uniform budget distribution
// illustration of Fig. 3.
func BenchmarkFig3BudgetSplit(b *testing.B) {
	printFig3Once.Do(func() {
		_ = BudgetSplitDemo(os.Stdout, 1.0, 4)
	})
	for i := 0; i < b.N; i++ {
		d, err := dp.UniformDistribution(1.0, 4)
		if err != nil {
			b.Fatal(err)
		}
		_ = dp.ComposedEpsilon(d.FlipProbs())
	}
}
