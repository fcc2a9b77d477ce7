// Command paperfigs regenerates the paper's evaluation tables and its
// ablations. Each experiment prints the MRE series that correspond to one
// figure or table. (The serving benchmark is bench/, whose binary is
// ppmbench.)
//
// Usage:
//
//	paperfigs -experiment fig4-taxi
//	paperfigs -experiment fig4-synth -datasets 20 -reps 10
//	paperfigs -experiment ablation-alpha
//	paperfigs -experiment budget-split -eps 1.5 -m 3
//	paperfigs -experiment all
package main

import (
	"flag"
	"fmt"
	"os"

	"patterndp/internal/dp"
	"patterndp/internal/experiment"
	"patterndp/internal/synth"
)

// synthDefault builds the paper's Algorithm 2 configuration with a seed.
func synthDefault(seed int64) synth.Config {
	return synth.DefaultConfig(seed)
}

func main() {
	var (
		exp      = flag.String("experiment", "all", "fig4-taxi | fig4-synth | ablation-alpha | ablation-length | ablation-overlap | ablation-step | budget-split | all")
		seed     = flag.Int64("seed", 1, "base random seed")
		reps     = flag.Int("reps", 5, "noise draws per cell")
		datasets = flag.Int("datasets", 5, "synthetic datasets to average (paper: 1000)")
		eps      = flag.Float64("eps", 1.0, "budget for single-budget experiments")
		m        = flag.Int("m", 3, "pattern length for budget-split")
		quick    = flag.Bool("quick", false, "shrink everything for a fast smoke run")
	)
	flag.Parse()

	cfg := experiment.DefaultFig4Config(*seed)
	cfg.Reps = *reps
	cfg.SynthDatasets = *datasets
	if *quick {
		cfg.Reps = 2
		cfg.SynthDatasets = 2
		cfg.TaxiCfg.GridW, cfg.TaxiCfg.GridH = 8, 8
		cfg.TaxiCfg.NumTaxis = 20
		cfg.TaxiCfg.Ticks = 200
		cfg.Adaptive.MaxIters = 10
	}

	if err := run(*exp, cfg, dp.Epsilon(*eps), *m); err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(1)
	}
}

func run(exp string, cfg experiment.Fig4Config, eps dp.Epsilon, m int) error {
	switch exp {
	case "fig4-taxi":
		return fig4Taxi(cfg)
	case "fig4-synth":
		return fig4Synth(cfg)
	case "ablation-alpha":
		rows, err := experiment.AblationAlpha(cfg, eps, []float64{0, 0.25, 0.5, 0.75, 1})
		if err != nil {
			return err
		}
		experiment.WriteAblation(os.Stdout, "Ablation A1: alpha sweep (MRE at eps=1, synthetic)", "alpha", rows)
		return nil
	case "ablation-length":
		rows, err := experiment.AblationPatternLength(cfg, eps, []int{1, 2, 3, 4, 5})
		if err != nil {
			return err
		}
		experiment.WriteAblation(os.Stdout, "Ablation A2: pattern length sweep (MRE at eps=1, synthetic)", "m", rows)
		return nil
	case "ablation-overlap":
		rows, err := experiment.AblationOverlap(cfg, eps, []float64{0, 0.25, 0.5, 0.75, 1})
		if err != nil {
			return err
		}
		experiment.WriteAblation(os.Stdout, "Ablation A3: private/target overlap sweep (MRE at eps=1, taxi)", "overlap", rows)
		return nil
	case "ablation-step":
		rows, err := experiment.AblationStepFactor(cfg, eps, []float64{0.005, 0.01, 0.02, 0.05, 0.1})
		if err != nil {
			return err
		}
		experiment.WriteAblation(os.Stdout, "Ablation A4: Algorithm 1 step factor sweep (MRE at eps=1, synthetic)", "step", rows)
		return nil
	case "budget-split":
		return experiment.BudgetSplitDemo(os.Stdout, eps, m)
	case "frontier":
		// Dual objective (Section III-B): smallest budget meeting each
		// quality requirement, per mechanism, on one synthetic dataset.
		b, err := experiment.SynthBench(synthDefault(cfg.Seed), cfg.WEventW, cfg.Alpha)
		if err != nil {
			return err
		}
		targets := []float64{0.6, 0.7, 0.8, 0.9, 0.95}
		for _, spec := range []experiment.MechanismSpec{experiment.SpecUniform, experiment.SpecBA} {
			points, err := experiment.Frontier(b, spec, targets, experiment.FrontierConfig{
				Reps: cfg.Reps, Seed: cfg.Seed, Adaptive: cfg.Adaptive,
			})
			if err != nil {
				return err
			}
			experiment.WriteFrontier(os.Stdout, "Privacy/quality frontier — synthetic", spec, points)
			fmt.Println()
		}
		return nil
	case "extended":
		// Extended comparison: Fig. 4 family plus count-release PPM and
		// w-event strawmen, on one synthetic dataset.
		b, err := experiment.SynthBench(synthDefault(cfg.Seed), cfg.WEventW, cfg.Alpha)
		if err != nil {
			return err
		}
		rs, err := experiment.RunSweep(b, experiment.SweepConfig{
			Epsilons: cfg.Epsilons,
			Specs:    experiment.ExtendedSpecs(),
			Reps:     cfg.Reps,
			Seed:     cfg.Seed,
			Adaptive: cfg.Adaptive,
		})
		if err != nil {
			return err
		}
		experiment.WriteTable(os.Stdout, "Extended mechanism family: MRE vs eps — synthetic", rs)
		return nil
	case "all":
		if err := fig4Taxi(cfg); err != nil {
			return err
		}
		fmt.Println()
		if err := fig4Synth(cfg); err != nil {
			return err
		}
		fmt.Println()
		return experiment.BudgetSplitDemo(os.Stdout, eps, m)
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

func fig4Taxi(cfg experiment.Fig4Config) error {
	rs, err := experiment.Fig4Taxi(cfg)
	if err != nil {
		return err
	}
	experiment.WriteTable(os.Stdout, "Fig. 4 (left): MRE vs eps — Taxi dataset", rs)
	return nil
}

func fig4Synth(cfg experiment.Fig4Config) error {
	rs, err := experiment.Fig4Synthetic(cfg)
	if err != nil {
		return err
	}
	experiment.WriteTable(os.Stdout,
		fmt.Sprintf("Fig. 4 (right): MRE vs eps — synthetic datasets (avg of %d)", cfg.SynthDatasets), rs)
	return nil
}
