// Package telemetry is the request-level observability layer of the
// render service: latency distributions, a standard exposition format,
// and the ability to explain any single slow request.
//
// It grows the per-frame means of internal/perf (the paper's Figure 5/6
// execution-time breakdowns) into production-grade telemetry:
//
//   - Histogram: a lock-free log-linear (HDR-style) histogram of
//     nanosecond durations with p50/p90/p99/p999 quantile estimation and
//     mergeable snapshots. Recording is three atomic adds; snapshots
//     never stop writers.
//   - Prometheus text-format exposition (prometheus.go): counters,
//     gauges and histogram _bucket/_sum/_count series, served by the
//     render service's /metrics endpoint under content negotiation.
//   - Per-request span traces (spans.go): every phase of a request —
//     admission, cache lookup/build, setup, per-worker composite
//     (own/steal), warp, encode — as timestamped spans, retained in a
//     fixed-size ring with head + tail-latency sampling and exportable
//     as Chrome trace-event JSON or as the paper's per-worker
//     busy/wait/imbalance timeline.
//   - log/slog helpers (log.go): request-ID generation and context
//     threading for structured logs.
//
// Like internal/perf and internal/trace, every recording site in the
// render path is nil-checked: with telemetry detached the frame loop
// performs no clock reads, allocates nothing, and renders
// byte-identically (guarded by TestSpansDetachedZeroAllocs and
// TestSpansByteIdentical).
package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// The bucket scheme is log-linear, the layout HDR histograms and
// OpenTelemetry exponential histograms share: each power-of-two octave
// of the nanosecond range is split into 2^subBits linear sub-buckets,
// bounding the relative error of any reconstructed quantile by
// 2^-subBits (6.25%) while covering 1ns..9.2s..centuries in under a
// thousand buckets. Values 0..subCount-1 get exact unit buckets.
const (
	subBits  = 4
	subCount = 1 << subBits
	// numBuckets covers every non-negative int64: unit buckets below
	// subCount, then subCount sub-buckets for each exponent subBits..62
	// (the top bucket's inclusive upper bound is exactly MaxInt64).
	numBuckets = subCount + (63-subBits)*subCount
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // floor(log2 v), >= subBits
	sub := int((uint64(v) >> uint(exp-subBits)) & (subCount - 1))
	return subCount + (exp-subBits)*subCount + sub
}

// bucketUpper returns the largest value mapping to bucket i (the
// inclusive upper bound quantiles report).
func bucketUpper(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	j := i - subCount
	exp := uint(j/subCount + subBits)
	sub := int64(j % subCount)
	width := int64(1) << (exp - subBits)
	lo := int64(1)<<exp | sub*width
	return lo + width - 1
}

// Histogram is a lock-free log-linear histogram of nanosecond
// durations. The zero value is unusable; construct with NewHistogram.
// Observe is safe for any number of concurrent callers (three atomic
// adds, no locks); Snapshot is safe concurrently with Observe.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64
	// exemplars, when attached via EnableExemplars, retains per-region
	// (value, request ID) pairs on the ObserveExemplarNS path. Nil (the
	// default) leaves every Observe variant untouched.
	exemplars *exemplarStore
	buckets   [numBuckets]atomic.Int64
}

// NewHistogram returns an empty histogram. It has no name: the
// exposition names each series where it writes it (PromWriter.Histogram).
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one duration. Negative durations clamp to zero.
// No-op on a nil receiver, so disabled telemetry paths need no guard.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.ObserveNS(int64(d))
}

// ObserveNS records one duration given in nanoseconds.
func (h *Histogram) ObserveNS(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the live histogram
// in nanoseconds, like HistogramSnapshot.Quantile but straight from the
// counters: no snapshot, no allocation. For callers that want one number
// often (the gateway's hedge delay), not a consistent set of them.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	target := quantileRank(q, h.count.Load())
	if target == 0 {
		return 0
	}
	var cum int64
	for i := range h.buckets {
		if cum += h.buckets[i].Load(); cum >= target {
			return bucketUpper(i)
		}
	}
	return bucketUpper(numBuckets - 1)
}

// quantileRank is the 1-based rank of the observation a q-quantile over
// count observations reports, clamped to [1, count]; 0 when there are none.
func quantileRank(q float64, count int64) int64 {
	if count <= 0 {
		return 0
	}
	return min(max(int64(math.Ceil(q*float64(count))), 1), count)
}

// Snapshot captures the histogram's current state. Because recording is
// three independent atomic adds, a snapshot taken mid-Observe can be
// torn by one in-flight observation (count and buckets may differ by
// one); quantiles tolerate that by clamping the target rank.
func (h *Histogram) Snapshot() *HistogramSnapshot {
	s := &HistogramSnapshot{}
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.SumNS = h.sum.Load()
	s.Counts = make([]int64, numBuckets)
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is an immutable-by-convention copy of a Histogram:
// the value quantiles, merges and exposition work from. Merging
// snapshots from several histograms (or several processes) is exact —
// all histograms share the same bucket boundaries.
type HistogramSnapshot struct {
	Count  int64
	SumNS  int64
	Counts []int64 // per-bucket counts, len numBuckets (nil = empty)
}

// Merge adds other's observations into s.
func (s *HistogramSnapshot) Merge(other *HistogramSnapshot) {
	if other == nil || other.Count == 0 {
		return
	}
	if s.Counts == nil {
		s.Counts = make([]int64, numBuckets)
	}
	for i, c := range other.Counts {
		s.Counts[i] += c
	}
	s.Count += other.Count
	s.SumNS += other.SumNS
}

// Quantile estimates the q-quantile (0 <= q <= 1) in nanoseconds: the
// inclusive upper bound of the bucket holding the rank-ceil(q*count)
// observation, so the relative error is bounded by the bucket scheme's
// 6.25%. Returns 0 on an empty snapshot.
func (s *HistogramSnapshot) Quantile(q float64) int64 {
	if s == nil || len(s.Counts) == 0 {
		return 0
	}
	target := quantileRank(q, s.Count)
	if target == 0 {
		return 0
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			return bucketUpper(i)
		}
	}
	return bucketUpper(numBuckets - 1)
}

// meanNS returns the mean observation in nanoseconds.
func (s *HistogramSnapshot) meanNS() float64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	return float64(s.SumNS) / float64(s.Count)
}

// maxNS returns the upper bound of the highest occupied bucket — an
// estimate of the maximum observation within the bucket scheme's error.
func (s *HistogramSnapshot) maxNS() int64 {
	if s == nil {
		return 0
	}
	for i := len(s.Counts) - 1; i >= 0; i-- {
		if s.Counts[i] != 0 {
			return bucketUpper(i)
		}
	}
	return 0
}

// CumulativeLE returns the number of observations <= bound (in
// nanoseconds): the count a Prometheus le-bucket reports. Bounds that
// are exact powers of two coincide with bucket boundaries, making the
// count exact; other bounds round down to the nearest boundary.
func (s *HistogramSnapshot) CumulativeLE(bound int64) int64 {
	if s == nil {
		return 0
	}
	var cum int64
	for i, c := range s.Counts {
		if bucketUpper(i) > bound {
			break
		}
		cum += c
	}
	return cum
}

// QuantileSummary is the marshal-friendly digest of a snapshot that
// /debug/latency carries: milliseconds, because it is read by humans and
// plotting scripts.
type QuantileSummary struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// Summary digests the snapshot into quantiles. A nil snapshot digests
// to the zero summary, like an empty one.
func (s *HistogramSnapshot) Summary() QuantileSummary {
	if s == nil {
		return QuantileSummary{}
	}
	const ms = 1e6
	return QuantileSummary{
		Count:  s.Count,
		MeanMS: s.meanNS() / ms,
		P50MS:  float64(s.Quantile(0.50)) / ms,
		P90MS:  float64(s.Quantile(0.90)) / ms,
		P95MS:  float64(s.Quantile(0.95)) / ms,
		P99MS:  float64(s.Quantile(0.99)) / ms,
		P999MS: float64(s.Quantile(0.999)) / ms,
		MaxMS:  float64(s.maxNS()) / ms,
	}
}
