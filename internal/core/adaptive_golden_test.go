package core_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"patterndp/internal/core"
	"patterndp/internal/dp"
	"patterndp/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/adaptive_fit.golden from the current fit")

// TestAdaptiveFitUnchanged fits the AdaptivePPM on Algorithm 2 datasets
// shaped like the serving benchmark's schema (12 targets, 3 private patterns
// of 3 elements, fitted on the first half of the windows) and compares
// Iterations, FittedQuality and every allocated ε, as hex floats, with
// testdata/adaptive_fit.golden. The golden file was captured from the fit as
// it ran on the per-window reference oracle (the commit before the compiled
// quality model; 4.3 s per 1000-window fit, hence goldens and not a live
// reference run). Every field but q must match byte for byte, so the
// allocation did not move by one bit; q, the fitted expected quality, is a
// sum the model groups by truth class where the oracle added per window, and
// must match within goldenQTol relative.
func TestAdaptiveFitUnchanged(t *testing.T) {
	var got strings.Builder
	for _, history := range []int{100, 1000} {
		for seed := int64(1); seed <= 5; seed++ {
			cfg := synth.DefaultConfig(seed)
			cfg.NumTarget = 12
			cfg.NumWindows = 2 * history
			ds, err := synth.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			hist := ds.IndicatorWindows()[:history]
			for _, eps := range []float64{0.1, 1, 5} {
				a, err := core.NewAdaptivePPM(core.AdaptiveConfig{Epsilon: dp.Epsilon(eps), Alpha: 0.5, Seed: seed}, hist, ds.TargetExprs(), ds.PrivateTypes()...)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&got, "history=%d seed=%d eps=%g iters=%d q=%x", history, seed, eps, a.Iterations(), a.FittedQuality())
				for k := range a.Private() {
					for _, part := range a.Distribution(k).Parts() {
						fmt.Fprintf(&got, " %x", float64(part))
					}
				}
				got.WriteByte('\n')
			}
		}
	}
	const path = "testdata/adaptive_fit.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d fits, golden file has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if !sameFit(gotLines[i], wantLines[i]) {
			t.Errorf("fit moved:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}

// BenchmarkAdaptiveFit measures a full Algorithm 1 fit on input shaped like
// the serving benchmark's schema: an Algorithm 2 dataset with 12 targets and
// 3 private patterns of 3 elements, fitted on the first half of its windows
// as experiment.SynthBench does. ns/fit and allocs/fit are custom metrics.
func BenchmarkAdaptiveFit(b *testing.B) {
	for _, history := range []int{100, 1000} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			cfg := synth.DefaultConfig(1)
			cfg.NumTarget = 12
			cfg.NumWindows = 2 * history
			ds, err := synth.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			wins, targets, private := ds.IndicatorWindows()[:history], ds.TargetExprs(), ds.PrivateTypes()
			acfg := core.AdaptiveConfig{Epsilon: 1, Alpha: 0.5}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mallocs := ms.Mallocs
			for b.Loop() {
				if _, err := core.NewAdaptivePPM(acfg, wins, targets, private...); err != nil {
					b.Fatal(err)
				}
			}
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/fit")
			b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(b.N), "allocs/fit")
		})
	}
}

// goldenQTol bounds the relative difference of a golden line's q field.
const goldenQTol = 1e-12

// sameFit compares two golden lines: every field byte for byte except q,
// which must parse and agree within goldenQTol.
func sameFit(got, want string) bool {
	gf, wf := strings.Fields(got), strings.Fields(want)
	if len(gf) != len(wf) {
		return false
	}
	for i := range gf {
		if gf[i] == wf[i] {
			continue
		}
		gq, gok := strings.CutPrefix(gf[i], "q=")
		wq, wok := strings.CutPrefix(wf[i], "q=")
		if !gok || !wok {
			return false
		}
		g, gerr := strconv.ParseFloat(gq, 64)
		w, werr := strconv.ParseFloat(wq, 64)
		if gerr != nil || werr != nil || math.Abs(g-w) > goldenQTol*math.Abs(w) {
			return false
		}
	}
	return true
}
