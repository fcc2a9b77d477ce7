package synth

import (
	"slices"
	"testing"

	"patterndp/internal/cep"
	"patterndp/internal/event"
	"patterndp/internal/stream"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		{NumTypes: 0, NumWindows: 1, NumPatterns: 1, PatternLen: 1, NumTarget: 1, WindowWidth: 1},
		{NumTypes: 5, NumWindows: 0, NumPatterns: 1, PatternLen: 1, NumTarget: 1, WindowWidth: 1},
		{NumTypes: 5, NumWindows: 1, NumPatterns: 0, PatternLen: 1, NumTarget: 1, WindowWidth: 1},
		{NumTypes: 5, NumWindows: 1, NumPatterns: 1, PatternLen: 9, NumTarget: 1, WindowWidth: 1},
		{NumTypes: 5, NumWindows: 1, NumPatterns: 1, PatternLen: 1, NumPrivate: 5, NumTarget: 1, WindowWidth: 1},
		{NumTypes: 5, NumWindows: 1, NumPatterns: 1, PatternLen: 1, NumTarget: 0, WindowWidth: 1},
		{NumTypes: 5, NumWindows: 1, NumPatterns: 1, PatternLen: 1, NumTarget: 1, WindowWidth: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	ds, err := Generate(DefaultConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Types) != 20 {
		t.Errorf("types = %d", len(ds.Types))
	}
	if len(ds.Windows) != 1000 {
		t.Errorf("windows = %d", len(ds.Windows))
	}
	if len(ds.Patterns) != 20 {
		t.Errorf("patterns = %d", len(ds.Patterns))
	}
	if len(ds.PrivateIdx) != 3 || len(ds.TargetIdx) != 5 {
		t.Errorf("private/target = %d/%d", len(ds.PrivateIdx), len(ds.TargetIdx))
	}
	for i, p := range ds.Patterns {
		if len(p) != 3 {
			t.Errorf("pattern %d has %d elements", i, len(p))
		}
		seen := map[event.Type]bool{}
		for _, e := range p {
			if seen[e] {
				t.Errorf("pattern %d repeats element %s", i, e)
			}
			seen[e] = true
		}
	}
	for ty, pr := range ds.Occurrence {
		if pr < 0 || pr >= 1 {
			t.Errorf("occurrence[%s] = %v", ty, pr)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(DefaultConfig(7))
	b, _ := Generate(DefaultConfig(7))
	if len(a.Windows) != len(b.Windows) {
		t.Fatal("window counts differ")
	}
	for i := range a.Windows {
		if !slices.Equal(a.Windows[i].TypeCounts, b.Windows[i].TypeCounts) {
			t.Fatalf("window %d differs", i)
		}
	}
	for i := range a.PrivateIdx {
		if a.PrivateIdx[i] != b.PrivateIdx[i] {
			t.Fatal("private selection differs")
		}
	}
	c, _ := Generate(DefaultConfig(8))
	// Different seed should (overwhelmingly) give different content.
	same := true
	for i := range a.Windows {
		if !slices.Equal(a.Windows[i].TypeCounts, c.Windows[i].TypeCounts) {
			same = false
			break
		}
	}
	if same && a.PrivateIdx[0] == c.PrivateIdx[0] && a.TargetIdx[0] == c.TargetIdx[0] {
		t.Error("different seeds produced identical datasets")
	}
}

func TestGenerateInvalidConfig(t *testing.T) {
	if _, err := Generate(Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestOccurrenceRatesRealized(t *testing.T) {
	cfg := DefaultConfig(3)
	ds, _ := Generate(cfg)
	// Empirical occurrence of each type across windows should be close to
	// its configured probability.
	for _, ty := range ds.Types {
		count := 0
		for _, w := range ds.Windows {
			if w.Count(ty) > 0 {
				count++
			}
		}
		got := float64(count) / float64(len(ds.Windows))
		want := ds.Occurrence[ty]
		if diff := got - want; diff > 0.06 || diff < -0.06 {
			t.Errorf("type %s: empirical %v vs configured %v", ty, got, want)
		}
	}
}

func TestWindowsAreTimeOrderedAndDisjoint(t *testing.T) {
	ds, _ := Generate(DefaultConfig(5))
	for i, w := range ds.Windows {
		if w.End-w.Start != ds.Config.WindowWidth {
			t.Fatalf("window %d width %d", i, w.End-w.Start)
		}
		if i > 0 && w.Start != ds.Windows[i-1].End {
			t.Fatalf("window %d not contiguous", i)
		}
	}
	// Each window's tally is exactly the events Events places inside it.
	got := make([]stream.TypeCounts, len(ds.Windows))
	for _, e := range ds.Events() {
		m := int(e.Time / ds.Config.WindowWidth)
		if e.Time < 0 || m >= len(ds.Windows) {
			t.Fatalf("event %v outside every window", e)
		}
		got[m] = got[m].Add(e.Type)
	}
	for i, w := range ds.Windows {
		if !slices.Equal(got[i], w.TypeCounts) {
			t.Fatalf("window %d tallies %v, its events %v", i, w.TypeCounts, got[i])
		}
	}
}

func TestPrivateTypesAndTargetExprs(t *testing.T) {
	ds, _ := Generate(DefaultConfig(11))
	pts := ds.PrivateTypes()
	if len(pts) != 3 {
		t.Fatalf("private types = %d", len(pts))
	}
	for i, pt := range pts {
		if pt.Len() != 3 {
			t.Errorf("private %d len = %d", i, pt.Len())
		}
	}
	exprs := ds.TargetExprs()
	if len(exprs) != 5 {
		t.Fatalf("target exprs = %d", len(exprs))
	}
	qs := ds.TargetQueries()
	if len(qs) != 5 {
		t.Fatalf("target queries = %d", len(qs))
	}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			t.Errorf("query %s invalid: %v", q.Name, err)
		}
	}
}

func TestIndicatorWindowsMatchDetection(t *testing.T) {
	// A pattern is "detected" in a window iff all elements present
	// (Algorithm 2, line 14) — indicator evaluation must agree with the
	// raw window evaluation for these conjunction patterns.
	ds, _ := Generate(DefaultConfig(13))
	iws := ds.IndicatorWindows()
	expr := cep.SeqTypes(ds.Patterns[0]...)
	agree := 0
	for i, w := range ds.Windows {
		viaInd := cep.EvalIndicators(expr, iws[i].Present)
		all := true
		for _, el := range ds.Patterns[0] {
			if w.Count(el) == 0 {
				all = false
				break
			}
		}
		if viaInd == all {
			agree++
		}
	}
	if agree != len(ds.Windows) {
		t.Errorf("indicator detection agrees on %d/%d windows", agree, len(ds.Windows))
	}
}

func TestEventsFlattenedOrdered(t *testing.T) {
	ds, _ := Generate(DefaultConfig(17))
	evs := ds.Events()
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Time < evs[i-1].Time {
			t.Fatal("events not time-ordered")
		}
	}
}

// overlapCount reports how many patterns are both private and target.
func overlapCount(ds *Dataset) int {
	n := 0
	for _, i := range ds.TargetIdx {
		if slices.Contains(ds.PrivateIdx, i) {
			n++
		}
	}
	return n
}

func TestOverlapCount(t *testing.T) {
	// Across many seeds, overlap must stay within [0, 3] and occasionally
	// be positive (private ∩ target ≠ ∅ is likely given 3+5 of 20).
	sawPositive := false
	for seed := int64(0); seed < 30; seed++ {
		ds, _ := Generate(DefaultConfig(seed))
		o := overlapCount(ds)
		if o < 0 || o > 3 {
			t.Fatalf("seed %d overlap = %d", seed, o)
		}
		if o > 0 {
			sawPositive = true
		}
	}
	if !sawPositive {
		t.Error("no overlap in 30 seeds — sampling is broken")
	}
}
