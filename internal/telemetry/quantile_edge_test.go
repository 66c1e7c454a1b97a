package telemetry

import (
	"math"
	"strings"
	"testing"

	"shearwarp/internal/telemetry/promtest"
)

// The quantile digests feed SLO decisions and dashboards, so their edge
// cases are pinned here: an empty histogram, a single sample, every
// sample in one bucket, and merges of disjoint snapshots must never
// produce NaN, negative, or non-monotone quantiles, and the Prometheus
// exposition of each must stay parseable.

// checkSummarySane fails on NaN, negative, or non-monotone quantiles.
func checkSummarySane(t *testing.T, s QuantileSummary) {
	t.Helper()
	vals := []float64{s.MeanMS, s.P50MS, s.P90MS, s.P95MS, s.P99MS, s.P999MS, s.MaxMS}
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("summary value %d is not finite: %+v", i, s)
		}
		if v < 0 {
			t.Fatalf("summary value %d is negative: %+v", i, s)
		}
	}
	if s.P50MS > s.P90MS || s.P90MS > s.P95MS || s.P95MS > s.P99MS ||
		s.P99MS > s.P999MS || s.P999MS > s.MaxMS {
		t.Fatalf("quantiles not monotone: %+v", s)
	}
}

func TestQuantileEmptyHistogram(t *testing.T) {
	h := NewHistogram()
	s := h.Snapshot()
	if q := s.Quantile(0.99); q != 0 {
		t.Fatalf("empty p99 = %d, want 0", q)
	}
	if m := s.meanNS(); m != 0 {
		t.Fatalf("empty mean = %g, want 0", m)
	}
	if m := s.maxNS(); m != 0 {
		t.Fatalf("empty max = %d, want 0", m)
	}
	checkSummarySane(t, s.Summary())

	// A nil snapshot behaves like an empty one.
	var nilSnap *HistogramSnapshot
	if q := nilSnap.Quantile(0.5); q != 0 {
		t.Fatalf("nil snapshot p50 = %d", q)
	}
	checkSummarySane(t, nilSnap.Summary())
}

func TestQuantileSingleSample(t *testing.T) {
	h := NewHistogram()
	h.ObserveNS(1_000_000) // 1ms
	s := h.Snapshot()
	// Every quantile of a single observation is that observation's
	// bucket bound, within the scheme's 6.25% relative error.
	for _, q := range []float64{0, 0.001, 0.5, 0.99, 0.999, 1} {
		v := s.Quantile(q)
		if v < 1_000_000 || float64(v) > 1_000_000*1.0625 {
			t.Fatalf("q=%g: %d outside [1ms, 1.0625ms]", q, v)
		}
	}
	checkSummarySane(t, s.Summary())
}

func TestQuantileAllSamplesOneBucket(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.ObserveNS(4096) // exact bucket boundary
	}
	s := h.Snapshot()
	want := s.Quantile(0.5)
	for _, q := range []float64{0.001, 0.9, 0.99, 0.999, 1} {
		if v := s.Quantile(q); v != want {
			t.Fatalf("q=%g: %d != p50 %d though all samples share a bucket", q, v, want)
		}
	}
	if want < 4096 || want > 4096+255 {
		t.Fatalf("p50 = %d, want within the 4096 bucket", want)
	}
	checkSummarySane(t, s.Summary())
}

func TestQuantileMergeDisjoint(t *testing.T) {
	lo := NewHistogram()
	hi := NewHistogram()
	for i := 0; i < 900; i++ {
		lo.ObserveNS(1_000) // 1µs
	}
	for i := 0; i < 100; i++ {
		hi.ObserveNS(1_000_000_000) // 1s
	}
	m := lo.Snapshot()
	m.Merge(hi.Snapshot())
	if m.Count != 1000 {
		t.Fatalf("merged count = %d, want 1000", m.Count)
	}
	if p50 := m.Quantile(0.5); p50 > 2_000 {
		t.Fatalf("merged p50 = %d, want ~1µs", p50)
	}
	if p99 := m.Quantile(0.99); p99 < 900_000_000 {
		t.Fatalf("merged p99 = %d, want ~1s", p99)
	}
	checkSummarySane(t, m.Summary())

	// Merging into an empty snapshot (nil Counts) works too.
	empty := NewHistogram().Snapshot()
	empty.Merge(hi.Snapshot())
	if empty.Count != 100 || empty.Quantile(0.5) < 900_000_000 {
		t.Fatalf("merge into empty: count %d p50 %d", empty.Count, empty.Quantile(0.5))
	}
	checkSummarySane(t, empty.Summary())

	// Merging an empty snapshot is a no-op.
	before := m.Count
	m.Merge(NewHistogram().Snapshot())
	m.Merge(nil)
	if m.Count != before {
		t.Fatalf("merging empty changed count: %d -> %d", before, m.Count)
	}
}

// TestPromExpositionEdgeCases runs empty, single-sample and merged
// histograms through the text exposition and the promtest checker: the
// scrape must parse whatever state the histograms are in.
func TestPromExpositionEdgeCases(t *testing.T) {
	var sb strings.Builder
	pw := newPromWriter(&sb)
	empty := NewHistogram()
	one := NewHistogram()
	one.ObserveNS(5_000_000)
	merged := NewHistogram()
	snap := merged.Snapshot()
	snap.Merge(one.Snapshot())

	pw.Histogram("edge_empty_seconds", "Empty histogram.", empty.Snapshot())
	pw.Histogram("edge_one_seconds", "One sample.", one.Snapshot())
	pw.Histogram("edge_merged_seconds", "Merged snapshot.", snap)
	if err := pw.Err(); err != nil {
		t.Fatal(err)
	}
	samples := promtest.Validate(t, sb.String())
	if samples["edge_empty_seconds_count"] != 0 {
		t.Fatalf("empty count = %g", samples["edge_empty_seconds_count"])
	}
	if samples["edge_one_seconds_count"] != 1 || samples["edge_merged_seconds_count"] != 1 {
		t.Fatal("single-sample counts wrong in exposition")
	}
}
