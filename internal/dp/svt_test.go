package dp

import (
	"errors"
	"math/rand"
	"testing"
)

func TestNewSparseVectorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewSparseVector(rng, 0, 10, 1, 1); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := NewSparseVector(rng, 1, 10, 0, 1); err == nil {
		t.Error("zero sensitivity accepted")
	}
	if _, err := NewSparseVector(rng, 1, 10, 1, 0); err == nil {
		t.Error("c=0 accepted")
	}
	if _, err := NewSparseVector(nil, 1, 10, 1, 1); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestSparseVectorSeparatesClearCases(t *testing.T) {
	// With a generous budget, values far from the threshold classify right.
	rng := rand.New(rand.NewSource(2))
	hits, misses := 0, 0
	const rounds = 300
	for r := 0; r < rounds; r++ {
		sv, err := NewSparseVector(rng, 8, 100, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		above, err := sv.Query(200) // far above
		if err != nil {
			t.Fatal(err)
		}
		if above {
			hits++
		}
		sv2, _ := NewSparseVector(rng, 8, 100, 1, 1)
		below, _ := sv2.Query(0) // far below
		if below {
			misses++
		}
	}
	if hits < rounds*9/10 {
		t.Errorf("far-above reported %d/%d", hits, rounds)
	}
	if misses > rounds/10 {
		t.Errorf("far-below reported %d/%d", misses, rounds)
	}
}

func TestSparseVectorExhaustsAfterCReports(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sv, _ := NewSparseVector(rng, 10, 0, 1, 2)
	reports := 0
	var exhausted bool
	for i := 0; i < 100; i++ {
		ok, err := sv.Query(1000) // always far above
		if errors.Is(err, ErrBudgetExhausted) {
			exhausted = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			reports++
		}
	}
	if reports != 2 {
		t.Errorf("positive reports = %d, want 2", reports)
	}
	if !exhausted {
		t.Error("SVT did not exhaust after c reports")
	}
	if sv.Remaining() != 0 {
		t.Errorf("Remaining = %d", sv.Remaining())
	}
}

func TestSparseVectorNegativesAreFree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sv, _ := NewSparseVector(rng, 10, 1000, 1, 1)
	for i := 0; i < 1000; i++ {
		ok, err := sv.Query(-1000)
		if err != nil {
			t.Fatalf("negative answer %d errored: %v", i, err)
		}
		if ok {
			t.Fatal("far-below value reported above")
		}
	}
	if sv.Remaining() != 1 {
		t.Error("negative answers consumed budget")
	}
}
