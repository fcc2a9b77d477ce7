package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{-5 * time.Second, 0}, // clamped to zero
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{1023, 10},
		{1024, 11},
		{1025, 11},
		{time.Duration(1)<<62 - 1, 62},
		{time.Duration(1) << 62, 63},
		{time.Duration(1<<63 - 1), 63},
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(c.d)
		s := h.Snapshot()
		if s.Count != 1 {
			t.Fatalf("Observe(%v): count = %d, want 1", c.d, s.Count)
		}
		for i, n := range s.Buckets {
			want := int64(0)
			if i == c.bucket {
				want = 1
			}
			if n != want {
				t.Errorf("Observe(%v): bucket[%d] = %d, want %d", c.d, i, n, want)
			}
		}
	}
}

func TestBucketUpper(t *testing.T) {
	if got := BucketUpper(0); got != 0 {
		t.Errorf("BucketUpper(0) = %v, want 0", got)
	}
	if got := BucketUpper(10); got != 1023 {
		t.Errorf("BucketUpper(10) = %v, want 1023ns", got)
	}
	if got := BucketUpper(63); got != time.Duration(1<<63-1) {
		t.Errorf("BucketUpper(63) = %v, want max duration", got)
	}
	// Every observation lands at or below its bucket's upper bound.
	for _, d := range []time.Duration{0, 1, 2, 1023, 1024, time.Second} {
		if ub := BucketUpper(bucketIndex(int64(d))); d > ub {
			t.Errorf("duration %v above its bucket bound %v", d, ub)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	const goroutines = 8
	const perG = 10000
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(g*perG + i))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if want := int64(goroutines * perG); s.Count != want {
		t.Fatalf("count = %d, want %d", s.Count, want)
	}
	var bucketTotal int64
	for _, n := range s.Buckets {
		bucketTotal += n
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
	const n = int64(goroutines * perG)
	if want := time.Duration(n * (n - 1) / 2); s.Sum != want {
		t.Fatalf("sum = %d, want %d", s.Sum, want)
	}
}

func TestHistogramMergeAssociative(t *testing.T) {
	mk := func(ds ...time.Duration) HistogramSnapshot {
		var h Histogram
		for _, d := range ds {
			h.Observe(d)
		}
		return h.Snapshot()
	}
	a := mk(1, 5, 1000)
	b := mk(2*time.Microsecond, 3*time.Millisecond)
	c := mk(0, time.Second, 2*time.Second, 90*time.Minute)

	left := a.Merge(b).Merge(c)
	right := a.Merge(b.Merge(c))
	if left != right {
		t.Fatalf("merge not associative:\n(a·b)·c = %+v\na·(b·c) = %+v", left, right)
	}
	swapped := c.Merge(a).Merge(b)
	if left != swapped {
		t.Fatalf("merge not commutative: %+v vs %+v", left, swapped)
	}
	if want := a.Count + b.Count + c.Count; left.Count != want {
		t.Fatalf("merged count = %d, want %d", left.Count, want)
	}
	if want := a.Sum + b.Sum + c.Sum; left.Sum != want {
		t.Fatalf("merged sum = %v, want %v", left.Sum, want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if q := h.Snapshot().Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
	// 1000 observations spread over [1ms, 2ms): p0 and p100 must bracket
	// the data, p50 must land inside the populated bucket's range.
	for i := 0; i < 1000; i++ {
		h.Observe(time.Millisecond + time.Duration(i)*time.Microsecond)
	}
	s := h.Snapshot()
	p50 := s.Quantile(0.5)
	if p50 < 512*time.Microsecond || p50 > 4*time.Millisecond {
		t.Errorf("p50 = %v, want within populated bucket range", p50)
	}
	if p99, max := s.Quantile(0.99), s.Max(); p99 > max {
		t.Errorf("p99 %v exceeds max bound %v", p99, max)
	}
	if s.Quantile(-1) > s.Quantile(2) {
		t.Errorf("clamped quantiles out of order")
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
	h.ObserveSince(time.Now())
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
}

func TestHistogramMeanMax(t *testing.T) {
	var h Histogram
	h.Observe(time.Second)
	h.Observe(3 * time.Second)
	s := h.Snapshot()
	if got := s.Mean(); got != 2*time.Second {
		t.Errorf("mean = %v, want 2s", got)
	}
	if got := s.Max(); got < 3*time.Second {
		t.Errorf("max bound %v below largest observation 3s", got)
	}
}

// TestHistogramReportsWhatItSaw checks the extremes are exact: one sample's
// Max and median are that sample, not its bucket's bounds, and a merge keeps
// the extremes of its non-empty sides.
func TestHistogramReportsWhatItSaw(t *testing.T) {
	const d = 2290 * time.Microsecond
	var h Histogram
	h.Observe(d)
	s := h.Snapshot()
	if got := s.Max(); got != d {
		t.Errorf("one-sample Max = %v, want %v", got, d)
	}
	if got := s.Quantile(0.5); got != d {
		t.Errorf("one-sample Quantile(0.5) = %v, want %v", got, d)
	}
	var g Histogram
	g.Observe(time.Millisecond)
	g.Observe(5 * time.Millisecond)
	m := HistogramSnapshot{}.Merge(g.Snapshot()).Merge(s)
	if got := m.Max(); got != 5*time.Millisecond {
		t.Errorf("merged Max = %v, want 5ms", got)
	}
	if got := m.Quantile(0); got != time.Millisecond {
		t.Errorf("merged Quantile(0) = %v, want the 1ms minimum", got)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		d := time.Duration(0)
		for pb.Next() {
			h.Observe(d)
			d += 997
		}
	})
}
