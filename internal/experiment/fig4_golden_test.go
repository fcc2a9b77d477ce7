package experiment

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateFig4 = flag.Bool("update", false, "rewrite testdata/fig4_synth.golden and testdata/fig4_taxi.golden from the current run")

// TestFig4SyntheticTableUnchanged reproduces the synthetic half of Fig. 4 as
// `paperfigs -experiment fig4-synth -datasets 2 -reps 2` prints it (seed 1)
// and compares the table byte for byte with testdata/fig4_synth.golden. The
// AdaptivePPM is refitted for every dataset and ε, so a fit whose split moved
// by one step, or a release whose draws moved, changes the table.
func TestFig4SyntheticTableUnchanged(t *testing.T) {
	cfg := DefaultFig4Config(1)
	cfg.Reps = 2
	cfg.SynthDatasets = 2
	rs, err := Fig4Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	WriteTable(&got, fmt.Sprintf("Fig. 4 (right): MRE vs eps — synthetic datasets (avg of %d)", cfg.SynthDatasets), rs)

	const path = "testdata/fig4_synth.golden"
	if *updateFig4 {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("Fig. 4 synthetic table moved:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestFig4TaxiTableUnchanged reproduces the taxi half of Fig. 4 as
// `paperfigs -experiment fig4-taxi -reps 2` prints it (seed 1) and compares
// the table byte for byte with testdata/fig4_taxi.golden. The simulated
// fleet, the cells its events name and every mechanism's draws feed it, so
// a fix that moved cell or a release whose draws moved changes the table.
func TestFig4TaxiTableUnchanged(t *testing.T) {
	cfg := DefaultFig4Config(1)
	cfg.Reps = 2
	rs, err := Fig4Taxi(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	WriteTable(&got, "Fig. 4 (left): MRE vs eps — Taxi dataset", rs)

	const path = "testdata/fig4_taxi.golden"
	if *updateFig4 {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("Fig. 4 taxi table moved:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}
