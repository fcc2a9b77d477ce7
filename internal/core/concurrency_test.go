package core

import (
	"math/rand"
	"sync"
	"testing"

	"patterndp/internal/cep"
	"patterndp/internal/event"
	"patterndp/internal/stream"
)

// TestPrivateEngineConcurrentRegistration exercises target registration
// racing with window processing (run with -race).
func TestPrivateEngineConcurrentRegistration(t *testing.T) {
	pt := mustPT(t, "p", "a")
	pe, err := NewPrivateEngine(Identity{}, []PatternType{pt}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pe.RegisterTarget(cep.Query{Name: "base", Pattern: cep.E("a"), Window: 10}); err != nil {
		t.Fatal(err)
	}
	ws := []stream.Window{{Start: 0, End: 10, TypeCounts: stream.TypeCounts{{Type: "a", N: 1}}}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if g%2 == 0 {
					name := string(rune('a' + g))
					pe.RegisterTarget(cep.Query{Name: name, Pattern: cep.E("a"), Window: 10})
				} else {
					if _, err := pe.ProcessWindows(ws); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPrivateEngineConcurrentService is the regression test for the shared
// service-phase RNG: with a non-trivial mechanism actually drawing
// randomness, concurrent ProcessEvents calls must neither race (run with
// -race) nor corrupt each other's answers.
func TestPrivateEngineConcurrentService(t *testing.T) {
	pt := mustPT(t, "p", "a", "b")
	// Huge budget: perturbation is negligible, so every goroutine must see
	// the true answers even though all of them draw from the engine's
	// randomness at once.
	ppm, err := NewUniformPPM(50, pt)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := NewPrivateEngine(ppm, []PatternType{pt}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := pe.RegisterTarget(cep.Query{Name: "tgt", Pattern: cep.E("a"), Window: 10}); err != nil {
		t.Fatal(err)
	}
	evs := []event.Event{event.New("a", 1), event.New("b", 11), event.New("a", 21)}
	wantDetect := []bool{true, false, true}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				answers, err := pe.ProcessEvents(evs, 10)
				if err != nil {
					t.Error(err)
					return
				}
				if len(answers) != len(wantDetect) {
					t.Errorf("answers = %d, want %d", len(answers), len(wantDetect))
					return
				}
				for w, a := range answers {
					if a.Detected != wantDetect[w] {
						t.Errorf("window %d detected=%t, want %t", w, a.Detected, wantDetect[w])
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestMixSeedNoDiagonalCollisions is the regression test for correlated
// randomness across derived seed hierarchies: child seed a with step n and
// child seed b with step m must not collide when a+n == b+m (the failure
// mode of purely linear golden-ratio mixing, where shard i's n-th call and
// shard j's m-th call drew identical noise whenever i+n == j+m).
func TestMixSeedNoDiagonalCollisions(t *testing.T) {
	for _, base := range []int64{0, 1, 42, -7, 1 << 40} {
		seen := make(map[int64]string)
		for i := int64(0); i < 8; i++ {
			child := MixSeed(base, i+1)
			for n := int64(1); n < 8; n++ {
				grand := MixSeed(child, n)
				key := string(rune(i)) + "/" + string(rune(n))
				if prev, ok := seen[grand]; ok {
					t.Fatalf("base %d: seed collision between (shard/call) %s and %s", base, prev, key)
				}
				seen[grand] = key
			}
		}
	}
}

// TestEngineRNGFullSeedSpace is the regression test for seed truncation:
// the stock rand.NewSource reduces seeds mod 2^31−1, so two 64-bit seeds
// differing by exactly that modulus would collapse to identical noise
// streams. The engine's source must keep all 64 bits.
func TestEngineRNGFullSeedSpace(t *testing.T) {
	const mersenne31 = int64(1)<<31 - 1
	a := rand.New(&splitmix64Source{state: uint64(12345)})
	b := rand.New(&splitmix64Source{state: uint64(12345 + mersenne31)})
	same := true
	for i := 0; i < 16; i++ {
		if a.Float64() != b.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds differing by 2^31-1 produced identical streams: seed space truncated")
	}
	// And the same state must reproduce the same stream.
	c := rand.New(&splitmix64Source{state: uint64(777)})
	d := rand.New(&splitmix64Source{state: uint64(777)})
	for i := 0; i < 16; i++ {
		if c.Float64() != d.Float64() {
			t.Fatal("identical states diverged")
		}
	}
}

// TestPrivateEngineSequentialDeterminism pins the per-call RNG derivation:
// two engines with the same seed must release identical answer sequences
// when driven sequentially.
func TestPrivateEngineSequentialDeterminism(t *testing.T) {
	pt := mustPT(t, "p", "a", "b")
	evs := []event.Event{event.New("a", 1), event.New("b", 11), event.New("a", 21), event.New("b", 31)}
	run := func() []Answer {
		ppm, err := NewUniformPPM(0.5, pt)
		if err != nil {
			t.Fatal(err)
		}
		pe, err := NewPrivateEngine(ppm, []PatternType{pt}, 99)
		if err != nil {
			t.Fatal(err)
		}
		pe.RegisterTarget(cep.Query{Name: "tgt", Pattern: cep.SeqTypes("a", "b"), Window: 10})
		var out []Answer
		for rep := 0; rep < 5; rep++ {
			answers, err := pe.ProcessEvents(evs, 10)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, answers...)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Detected != b[i].Detected {
			t.Fatalf("answer %d diverges between identically seeded runs", i)
		}
	}
}
