package dp

import (
	"fmt"
	"math"
	"math/rand"
)

// SparseVector implements the sparse vector technique (AboveThreshold,
// Dwork & Roth §3.6): it answers a stream of threshold queries, spending
// budget only on the (at most c) queries reported above threshold. Stream DP
// systems use it to detect change points cheaply; it complements the
// w-event baselines' dissimilarity tests.
type SparseVector struct {
	eps       Epsilon
	threshold float64
	sens      float64
	c         int // maximum above-threshold reports
	budget    int // remaining above-threshold reports
	noisyT    float64
	rng       *rand.Rand
	exhausted bool
}

// NewSparseVector prepares an AboveThreshold instance answering queries of
// the given sensitivity against threshold, reporting at most c positives
// under total budget eps.
func NewSparseVector(rng *rand.Rand, eps Epsilon, threshold, sens float64, c int) (*SparseVector, error) {
	if !eps.Valid() || eps == 0 {
		return nil, fmt.Errorf("dp: invalid SVT budget %v", eps)
	}
	if sens <= 0 || math.IsNaN(sens) {
		return nil, fmt.Errorf("dp: invalid SVT sensitivity %v", sens)
	}
	if c <= 0 {
		return nil, fmt.Errorf("dp: SVT positive-report bound c=%d", c)
	}
	if rng == nil {
		return nil, fmt.Errorf("dp: SVT requires a rng")
	}
	sv := &SparseVector{
		eps:       eps,
		threshold: threshold,
		sens:      sens,
		c:         c,
		budget:    c,
		rng:       rng,
	}
	sv.resetThresholdNoise()
	return sv, nil
}

// Budget splits: half for the threshold, half for the answers, with the
// answer half further divided by the report bound c (the standard SVT
// allocation).
func (s *SparseVector) thresholdEps() float64 { return float64(s.eps) / 2 }
func (s *SparseVector) answerEps() float64    { return float64(s.eps) / 2 / float64(s.c) }

// resetThresholdNoise draws the noisy threshold.
func (s *SparseVector) resetThresholdNoise() {
	s.noisyT = s.threshold + Laplace(s.rng, s.sens/s.thresholdEps())
}

// Query answers one threshold query: it returns true when the noisy value
// exceeds the noisy threshold. After c positive answers the instance is
// exhausted and returns ErrBudgetExhausted.
func (s *SparseVector) Query(value float64) (bool, error) {
	if s.exhausted {
		return false, ErrBudgetExhausted
	}
	noisy := value + Laplace(s.rng, 2*s.sens/s.answerEps())
	if noisy >= s.noisyT {
		s.budget--
		if s.budget == 0 {
			s.exhausted = true
		} else {
			s.resetThresholdNoise()
		}
		return true, nil
	}
	return false, nil
}

// Remaining reports how many positive answers the instance can still give.
func (s *SparseVector) Remaining() int { return s.budget }
