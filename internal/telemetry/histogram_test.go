package telemetry

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexUpperConsistent(t *testing.T) {
	// Every bucket's inclusive upper bound must map back to that bucket,
	// and the bound one past it must map to the next.
	for i := 0; i < numBuckets-1; i++ {
		up := bucketUpper(i)
		if got := bucketIndex(up); got != i {
			t.Fatalf("bucketIndex(bucketUpper(%d)=%d) = %d", i, up, got)
		}
		if got := bucketIndex(up + 1); got != i+1 {
			t.Fatalf("bucketIndex(%d) = %d, want %d", up+1, got, i+1)
		}
	}
}

func TestBucketRelativeError(t *testing.T) {
	// The log-linear scheme bounds the relative width of any bucket
	// above the linear range by 2^-subBits.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		v := rng.Int63n(int64(1) << 40)
		up := bucketUpper(bucketIndex(v))
		if up < v {
			t.Fatalf("upper bound %d below value %d", up, v)
		}
		if v >= subCount {
			if relErr := float64(up-v) / float64(v); relErr > 1.0/subCount {
				t.Fatalf("value %d: upper %d, relative error %.4f > %.4f", v, up, relErr, 1.0/subCount)
			}
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// A known uniform distribution: 1..1000 µs.
	for i := 1; i <= 1000; i++ {
		h.ObserveNS(int64(i) * 1000)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count %d, want 1000", s.Count)
	}
	checks := []struct {
		q    float64
		want int64 // exact value at that rank, ns
	}{{0.5, 500_000}, {0.9, 900_000}, {0.99, 990_000}, {0.999, 999_000}}
	for _, c := range checks {
		got := s.Quantile(c.q)
		if live := h.Quantile(c.q); live != got {
			t.Errorf("p%g straight from the histogram = %d ns, from its snapshot %d", c.q*100, live, got)
		}
		if relErr := math.Abs(float64(got-c.want)) / float64(c.want); relErr > 1.0/subCount {
			t.Errorf("p%g = %d ns, want %d within %.2f%%", c.q*100, got, c.want, 100.0/subCount)
		}
	}
	if mean := s.meanNS(); math.Abs(mean-500_500) > 1 {
		t.Errorf("mean %.1f, want 500500", mean)
	}
	if max := s.maxNS(); max < 1_000_000 || float64(max) > 1_000_000*(1+1.0/subCount)+1 {
		t.Errorf("max %d, want ~1000000", max)
	}
}

func TestHistogramEdge(t *testing.T) {
	var nilH *Histogram
	nilH.Observe(time.Second) // must not panic
	if nilH.Count() != 0 {
		t.Fatal("nil histogram counted")
	}
	s := nilH.Snapshot()
	if s.Quantile(0.5) != 0 || s.meanNS() != 0 || s.maxNS() != 0 {
		t.Fatal("nil snapshot not empty")
	}
	if nilH.Quantile(0.5) != 0 || NewHistogram().Quantile(0.5) != 0 {
		t.Fatal("quantile of no observations is not 0")
	}

	h := NewHistogram()
	h.ObserveNS(-5) // clamps to 0
	h.ObserveNS(0)
	h.ObserveNS(math.MaxInt64)
	s = h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count %d, want 3", s.Count)
	}
	if q := s.Quantile(0.5); q != 0 {
		t.Fatalf("median %d, want 0", q)
	}
	if s.Quantile(1) <= 0 {
		t.Fatalf("p100 %d, want huge", s.Quantile(1))
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram()
	b := NewHistogram()
	for i := 0; i < 500; i++ {
		a.ObserveNS(1000)
		b.ObserveNS(9000)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 1000 {
		t.Fatalf("merged count %d", sa.Count)
	}
	if sa.SumNS != 500*1000+500*9000 {
		t.Fatalf("merged sum %d", sa.SumNS)
	}
	// Median of the merged set sits between the two modes.
	if q := sa.Quantile(0.5); q < 1000 || q > 9000+9000/subCount {
		t.Fatalf("merged median %d", q)
	}
	var empty HistogramSnapshot
	empty.Merge(sa)
	if empty.Count != 1000 {
		t.Fatalf("merge into zero snapshot: count %d", empty.Count)
	}
	empty.Merge(nil) // must not panic
}

func TestHistogramConcurrent(t *testing.T) {
	// Concurrent Observe + Snapshot under -race; totals must balance.
	h := NewHistogram()
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				h.Snapshot().Quantile(0.99)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.ObserveNS(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count %d, want %d", s.Count, workers*per)
	}
	var sum int64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != s.Count {
		t.Fatalf("bucket sum %d != count %d", sum, s.Count)
	}
}

func TestCumulativeLE(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.ObserveNS(1 << 12) // 4096
	}
	for i := 0; i < 50; i++ {
		h.ObserveNS(1 << 20)
	}
	s := h.Snapshot()
	if got := s.CumulativeLE(1 << 13); got != 100 {
		t.Fatalf("<=8192: %d, want 100", got)
	}
	if got := s.CumulativeLE(1 << 21); got != 150 {
		t.Fatalf("<=2^21: %d, want 150", got)
	}
	if got := s.CumulativeLE(10); got != 0 {
		t.Fatalf("<=10: %d, want 0", got)
	}
}

func TestQuantileSummary(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	qs := h.Snapshot().Summary()
	if qs.Count != 100 {
		t.Fatalf("count %d", qs.Count)
	}
	if qs.P50MS < 45 || qs.P50MS > 55 {
		t.Fatalf("p50 %.2f ms, want ~50", qs.P50MS)
	}
	if qs.P99MS < 95 || qs.P99MS > 107 {
		t.Fatalf("p99 %.2f ms, want ~99", qs.P99MS)
	}
	if qs.MaxMS < qs.P999MS {
		t.Fatalf("max %.2f < p999 %.2f", qs.MaxMS, qs.P999MS)
	}
}

// BenchmarkHistogramObserve is the histogram-path cost guard: recording
// must stay a few atomic adds so per-frame and per-request observation
// never shows up in the overhead budget.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveNS(int64(i) * 997)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(1)
		for pb.Next() {
			v += 997
			h.ObserveNS(v)
		}
	})
}
