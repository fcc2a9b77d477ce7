package baseline

import (
	"math"
	"math/rand"
	"testing"

	"patterndp/internal/core"
	"patterndp/internal/event"
)

func TestWEventUniformConfig(t *testing.T) {
	p := pt(t, "p", "a", "b")
	if _, err := NewWEventUniform(WEventConfig{PatternEpsilon: -1, W: 5, Private: []core.PatternType{p}}); err == nil {
		t.Error("bad budget accepted")
	}
	u, err := NewWEventUniform(WEventConfig{PatternEpsilon: 1, W: 10, Private: []core.PatternType{p}})
	if err != nil {
		t.Fatal(err)
	}
	if u.Name() != "wevent-uniform" || u.TotalEpsilon() != 1 {
		t.Error("metadata broken")
	}
	if math.Abs(float64(u.wEps)-5.0) > 1e-12 {
		t.Errorf("converted = %v", u.wEps)
	}
}

func TestWEventUniformHighBudgetAccuracy(t *testing.T) {
	p := pt(t, "p", "a")
	u, _ := NewWEventUniform(WEventConfig{PatternEpsilon: 500, W: 4, Private: []core.PatternType{p}})
	wins := mkWins(40, 2, "a")
	rng := rand.New(rand.NewSource(1))
	out := u.Run(rng, wins)
	wrong := 0
	for i, m := range out {
		if m["a"] != wins[i].Present["a"] {
			wrong++
		}
	}
	if wrong > 2 {
		t.Errorf("high-budget uniform w-event got %d/40 wrong", wrong)
	}
}

func TestWEventUniformZeroBudgetCoinFlip(t *testing.T) {
	p := pt(t, "p", "a")
	u, _ := NewWEventUniform(WEventConfig{PatternEpsilon: 0, W: 4, Private: []core.PatternType{p}})
	wins := mkWins(1000, 1, "a")
	rng := rand.New(rand.NewSource(2))
	out := u.Run(rng, wins)
	heads := 0
	for _, m := range out {
		if m["a"] {
			heads++
		}
	}
	if heads < 400 || heads > 600 {
		t.Errorf("zero-budget release not a fair coin: %d/1000", heads)
	}
}

func TestWEventSamplePublishesEveryWth(t *testing.T) {
	p := pt(t, "p", "a")
	s, err := NewWEventSample(WEventConfig{PatternEpsilon: 500, W: 4, Private: []core.PatternType{p}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "wevent-sample" {
		t.Error("name broken")
	}
	// Signal alternates every window; samples land on even indices
	// (present), so released values should be stuck at the sampled value
	// between publications.
	wins := mkWins(16, 2, "a") // present at 0, 2, 4, ...
	rng := rand.New(rand.NewSource(3))
	out := s.Run(rng, wins)
	// Windows 0..3 all repeat window 0's (present) release.
	for i := 1; i < 4; i++ {
		if out[i]["a"] != out[0]["a"] {
			t.Errorf("window %d not approximated from last sample", i)
		}
	}
	// A fresh publication happens at window 4.
	if !out[4]["a"] { // window 4 has the event; budget is huge
		t.Error("publication window 4 wrong")
	}
}

func TestWEventSampleInterfaceAndBudget(t *testing.T) {
	p := pt(t, "p", "a", "b")
	var _ core.Mechanism = &WEventSample{}
	var _ core.Mechanism = &WEventUniform{}
	s, _ := NewWEventSample(WEventConfig{PatternEpsilon: 2, W: 6, Private: []core.PatternType{p}})
	if math.Abs(float64(s.wEps)-6.0) > 1e-12 {
		t.Errorf("converted = %v, want 6 (2*6/2)", s.wEps)
	}
	if _, err := NewWEventSample(WEventConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestStrawmenReleaseAllTypes(t *testing.T) {
	p := pt(t, "p", "a")
	wins := mkWins(10, 2, "a", "b", "c")
	rng := rand.New(rand.NewSource(4))
	u, _ := NewWEventUniform(WEventConfig{PatternEpsilon: 1, W: 4, Private: []core.PatternType{p}})
	s, _ := NewWEventSample(WEventConfig{PatternEpsilon: 1, W: 4, Private: []core.PatternType{p}})
	for _, mech := range []core.Mechanism{u, s} {
		out := mech.Run(rng, wins)
		for i, m := range out {
			if len(m) != 3 {
				t.Errorf("%s window %d released %d types", mech.Name(), i, len(m))
			}
			for _, ty := range []event.Type{"a", "b", "c"} {
				if _, ok := m[ty]; !ok {
					t.Errorf("%s window %d missing %s", mech.Name(), i, ty)
				}
			}
		}
	}
}
