package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// resultFile is what -repeat writes and -compare reads.
type resultFile struct {
	Runs []*runResult `json:"runs"`
}

func writeResults(path string, runs []*runResult) error {
	data, err := json.MarshalIndent(resultFile{Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readResults groups a result file's values by workload and metric.
func readResults(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]map[string][]float64)
	for _, r := range f.Runs {
		if !r.Correct {
			return nil, fmt.Errorf("%s: a %s run failed its output checks", path, r.Workload)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, nil
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), so spreads
// computed here match whoever checks them that way.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	q1, _, q3 := quartiles(values)
	if m := median(values); m != 0 {
		return (q3 - q1) / math.Abs(m)
	}
	return 0
}

// compareFiles prints, per workload and end-to-end metric, each set's median
// and quartiles and — given two files — how far the second median is from
// the first, in the worse direction, against the metric's bound: within,
// outside, or unresolved when either set's own spread is wider than the
// bound.
func compareFiles(w io.Writer, paths []string) error {
	if len(paths) < 1 || len(paths) > 2 {
		return fmt.Errorf("-compare takes one or two result files")
	}
	var sets []map[string]map[string][]float64
	for _, p := range paths {
		set, err := readResults(p)
		if err != nil {
			return err
		}
		sets = append(sets, set)
	}
	outside := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			a := sets[0][wl.Name][d.Name]
			if len(a) == 0 {
				continue
			}
			q1, _, q3 := quartiles(a)
			fmt.Fprintf(w, "%-15s %-22s A: n=%-2d median %12.5g [%.5g, %.5g] spread %5.1f%%", wl.Name, d.Name, len(a), median(a), q1, q3, 100*spread(a))
			if len(sets) == 1 {
				fmt.Fprintf(w, "  bound %4.1f%%\n", 100*d.Bound)
				continue
			}
			b := sets[1][wl.Name][d.Name]
			if len(b) == 0 {
				fmt.Fprintln(w, "  B: missing")
				continue
			}
			q1, _, q3 = quartiles(b)
			worse := (median(b) - median(a)) / math.Abs(median(a))
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "within"
			switch {
			case spread(a) > d.Bound || spread(b) > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "outside"
				outside++
			}
			fmt.Fprintf(w, "  B: n=%-2d median %12.5g [%.5g, %.5g] spread %5.1f%%  worse by %+6.1f%%  bound %4.1f%%  %s\n",
				len(b), median(b), q1, q3, 100*spread(b), 100*worse, 100*d.Bound, verdict)
		}
	}
	if outside > 0 {
		return fmt.Errorf("%d metrics outside their bounds", outside)
	}
	return nil
}
