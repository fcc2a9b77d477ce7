// Package synth implements Algorithm 2 of the paper: the random generator
// for the synthetic evaluation datasets. Each dataset has a universe of
// basic event types with random natural occurrence probabilities, a set of
// windows in which each type appears independently with its probability, and
// a set of patterns (random element subsets) from which private and target
// patterns are drawn.
package synth

import (
	"fmt"
	"math/rand"

	"patterndp/internal/cep"
	"patterndp/internal/core"
	"patterndp/internal/event"
	"patterndp/internal/stream"
)

// Config parameterizes Algorithm 2. The zero value is not valid; use
// DefaultConfig for the paper's parameters.
type Config struct {
	// NumTypes is the number of basic event types (paper: 20).
	NumTypes int
	// NumWindows is the number of generated windows L_m (paper: 1000).
	NumWindows int
	// NumPatterns is the number of candidate patterns (paper: 20).
	NumPatterns int
	// PatternLen is the number of events per pattern (paper: 3).
	PatternLen int
	// NumPrivate is how many patterns are selected as private (paper: 3).
	NumPrivate int
	// NumTarget is how many patterns are selected as target (paper: 5).
	NumTarget int
	// WindowWidth is the logical-time width of each generated window.
	WindowWidth event.Timestamp
	// Seed drives all randomness of the generator.
	Seed int64
}

// DefaultConfig returns the parameters of Algorithm 2 as published.
func DefaultConfig(seed int64) Config {
	return Config{
		NumTypes:    20,
		NumWindows:  1000,
		NumPatterns: 20,
		PatternLen:  3,
		NumPrivate:  3,
		NumTarget:   5,
		WindowWidth: 100,
		Seed:        seed,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.NumTypes <= 0:
		return fmt.Errorf("synth: NumTypes = %d", c.NumTypes)
	case c.NumWindows <= 0:
		return fmt.Errorf("synth: NumWindows = %d", c.NumWindows)
	case c.NumPatterns <= 0:
		return fmt.Errorf("synth: NumPatterns = %d", c.NumPatterns)
	case c.PatternLen <= 0 || c.PatternLen > c.NumTypes:
		return fmt.Errorf("synth: PatternLen = %d with %d types", c.PatternLen, c.NumTypes)
	case c.NumPrivate < 0 || c.NumPrivate > c.NumPatterns:
		return fmt.Errorf("synth: NumPrivate = %d of %d patterns", c.NumPrivate, c.NumPatterns)
	case c.NumTarget <= 0 || c.NumTarget > c.NumPatterns:
		return fmt.Errorf("synth: NumTarget = %d of %d patterns", c.NumTarget, c.NumPatterns)
	case c.WindowWidth <= 0:
		return fmt.Errorf("synth: WindowWidth = %d", c.WindowWidth)
	}
	return nil
}

// Dataset is one generated synthetic dataset.
type Dataset struct {
	// Config echoes the generator parameters.
	Config Config
	// Types are the basic event types e1…eN.
	Types []event.Type
	// Occurrence maps each type to its natural occurrence probability.
	Occurrence map[event.Type]float64
	// Windows tally the generated events, one window per L_m.
	Windows []stream.Window
	// Patterns are the candidate patterns P1…PK as element type lists.
	Patterns [][]event.Type
	// PrivateIdx are the indices of the private patterns.
	PrivateIdx []int
	// TargetIdx are the indices of the target patterns.
	TargetIdx []int
	// events are the generated events in time order.
	events []event.Event
}

// Generate runs Algorithm 2 once.
func Generate(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds := &Dataset{Config: cfg, Occurrence: make(map[event.Type]float64, cfg.NumTypes)}

	// Line 1–2: basic events and natural occurrence probabilities.
	ds.Types = make([]event.Type, cfg.NumTypes)
	for i := range ds.Types {
		t := event.Type(fmt.Sprintf("e%d", i+1))
		ds.Types[i] = t
		ds.Occurrence[t] = rng.Float64()
	}

	// Lines 3–12: windows; each type occurs independently per window.
	ds.Windows = make([]stream.Window, cfg.NumWindows)
	for m := 0; m < cfg.NumWindows; m++ {
		start := event.Timestamp(m) * cfg.WindowWidth
		w := stream.Window{Start: start, End: start + cfg.WindowWidth}
		// Place occurring events at consecutive offsets so temporal order
		// inside the window is well-defined.
		offset := event.Timestamp(0)
		for _, t := range ds.Types {
			if rng.Float64() < ds.Occurrence[t] {
				w.TypeCounts = w.TypeCounts.Add(t)
				ds.events = append(ds.events, event.New(t, start+offset).WithSource("synth"))
				offset++
			}
		}
		ds.Windows[m] = w
	}

	// Line 13: select private and target patterns. The paper samples both
	// from the same pool, so overlap between the sets is possible — that
	// is what makes the evaluation interesting.
	ds.PrivateIdx = sampleIndices(rng, cfg.NumPatterns, cfg.NumPrivate)
	ds.TargetIdx = sampleIndices(rng, cfg.NumPatterns, cfg.NumTarget)

	// Line 14: assign random elements to each pattern.
	ds.Patterns = make([][]event.Type, cfg.NumPatterns)
	for k := range ds.Patterns {
		idxs := sampleIndices(rng, cfg.NumTypes, cfg.PatternLen)
		elems := make([]event.Type, cfg.PatternLen)
		for j, ti := range idxs {
			elems[j] = ds.Types[ti]
		}
		ds.Patterns[k] = elems
	}
	return ds, nil
}

// sampleIndices draws k distinct indices from [0, n) uniformly.
func sampleIndices(rng *rand.Rand, n, k int) []int {
	perm := rng.Perm(n)
	out := make([]int, k)
	copy(out, perm[:k])
	return out
}

// PrivateTypes returns the private patterns as core pattern types.
func (ds *Dataset) PrivateTypes() []core.PatternType {
	out := make([]core.PatternType, 0, len(ds.PrivateIdx))
	for _, idx := range ds.PrivateIdx {
		pt, err := core.NewPatternType(fmt.Sprintf("private-P%d", idx+1), ds.Patterns[idx]...)
		if err != nil {
			// Generation guarantees non-empty names and elements.
			panic(err)
		}
		out = append(out, pt)
	}
	return out
}

// TargetExprs returns the target patterns as CEP expressions. Detection in a
// window requires all elements present, per Algorithm 2's final line.
func (ds *Dataset) TargetExprs() []cep.Expr {
	out := make([]cep.Expr, 0, len(ds.TargetIdx))
	for _, idx := range ds.TargetIdx {
		out = append(out, cep.SeqTypes(ds.Patterns[idx]...))
	}
	return out
}

// TargetQueries returns the target patterns as registered queries.
func (ds *Dataset) TargetQueries() []cep.Query {
	out := make([]cep.Query, 0, len(ds.TargetIdx))
	for _, idx := range ds.TargetIdx {
		out = append(out, cep.Query{
			Name:    fmt.Sprintf("target-P%d", idx+1),
			Pattern: cep.SeqTypes(ds.Patterns[idx]...),
			Window:  ds.Config.WindowWidth,
		})
	}
	return out
}

// IndicatorWindows converts the generated windows into per-type indicator
// windows over the whole type universe.
func (ds *Dataset) IndicatorWindows() []core.IndicatorWindow {
	return core.IndicatorWindows(ds.Windows, ds.Types)
}

// Events returns the generated events as one time-ordered slice, which is
// shared and must not be modified.
func (ds *Dataset) Events() []event.Event { return ds.events }
