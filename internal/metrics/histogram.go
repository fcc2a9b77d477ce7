package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of exponential buckets in a Histogram. Bucket i
// holds observations whose duration in nanoseconds needs exactly i bits to
// represent, i.e. durations in [2^(i-1), 2^i). Bucket 0 holds zero (and
// negative, clamped) durations. 64 buckets cover the full int64 nanosecond
// range — from 1 ns to ~292 years — so no observation is ever out of range.
const histBuckets = 64

// Histogram is a lock-free latency histogram with power-of-two nanosecond
// buckets. The zero value is ready to use. Observe is safe for concurrent
// use from any number of goroutines and performs no allocation; all methods
// are safe on a nil receiver (no-ops / zero snapshots), so instrumented code
// never needs a nil check on the fast path.
type Histogram struct {
	sum  atomic.Int64 // total nanoseconds
	most atomic.Int64 // largest observation
	// least is math.MaxInt64 minus the smallest: zero holds none, and it rises.
	least   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// raise sets v to x if x is larger: one load, and a CAS only on a new
// extreme.
func raise(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x <= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// bucketIndex maps a non-negative nanosecond duration to its bucket.
func bucketIndex(ns int64) int {
	// bits.Len64 of a non-negative int64 is at most 63, so the index is
	// always in [0, 63].
	return bits.Len64(uint64(ns))
}

// BucketUpper returns the inclusive upper bound of bucket i as a duration:
// 2^i − 1 nanoseconds. The last bucket's bound saturates at the maximum
// representable duration.
func BucketUpper(i int) time.Duration {
	if i >= 63 {
		return time.Duration(1<<63 - 1)
	}
	return time.Duration(int64(1)<<uint(i) - 1)
}

// Observe records one duration. Negative durations (possible under clock
// steps) are clamped to zero rather than dropped so Count stays consistent
// with the number of measured operations.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	// The extremes first: a Snapshot that counts this observation in its
	// bucket also sees it in them.
	raise(&h.most, ns)
	raise(&h.least, math.MaxInt64-ns)
	h.sum.Add(ns)
	h.buckets[bucketIndex(ns)].Add(1)
}

// ObserveSince is shorthand for Observe(time.Since(start)).
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start))
}

// Snapshot captures a point-in-time copy of the histogram. Loads are not
// atomic across buckets — a snapshot taken during concurrent Observes may be
// torn by a few in-flight observations — which is the standard monitoring
// trade-off; totals are reconciled so Count always equals the bucket sum.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	var total int64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		total += n
	}
	s.Count = total
	s.Sum = time.Duration(h.sum.Load())
	if total > 0 {
		s.lo = time.Duration(math.MaxInt64 - h.least.Load())
		s.hi = time.Duration(h.most.Load())
	}
	return s
}

// HistogramSnapshot is an immutable copy of a Histogram's state. Snapshots
// from different histograms (e.g. per-shard) merge associatively, so
// aggregation order never changes the result.
type HistogramSnapshot struct {
	// Count is the total number of observations.
	Count int64
	// Sum is the sum of all observed durations.
	Sum time.Duration
	// Buckets[i] counts observations in bucket i (see BucketUpper).
	Buckets [histBuckets]int64
	// lo and hi are the smallest and largest observations (0 when empty).
	lo, hi time.Duration
}

// Merge folds o into s, returning the combined snapshot.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	switch {
	case o.Count == 0:
	case s.Count == 0:
		s.lo, s.hi = o.lo, o.hi
	default:
		s.lo, s.hi = min(s.lo, o.lo), max(s.hi, o.hi)
	}
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	return s
}

// Mean returns the average observed duration, or 0 with no observations.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Max returns the largest observation, or 0 when empty.
func (s HistogramSnapshot) Max() time.Duration { return s.hi }

// Quantile estimates the q-th quantile (q in [0, 1]) by linear interpolation
// inside the bucket containing the target rank, clamped to the observed
// [min, max]. It returns 0 when the histogram is empty; q outside [0, 1] is
// clamped.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := min(max(q, 0), 1) * float64(s.Count)
	var cum float64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= rank {
			lo := int64(0)
			if i > 0 {
				lo = int64(1) << uint(i-1)
			}
			hi := int64(BucketUpper(i))
			frac := (rank - cum) / float64(n)
			return min(max(time.Duration(float64(lo)+frac*float64(hi-lo)), s.lo), s.hi)
		}
		cum = next
	}
	return s.hi
}
