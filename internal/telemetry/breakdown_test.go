package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"shearwarp/internal/perf"
)

// TestBreakdownThroughTelemetry round-trips a perf.FrameBreakdown through
// its JSON encoding and then through the telemetry snapshot types: the
// decoded breakdown's per-worker phase durations feed a histogram, and
// both the histogram snapshot and its quantile digest must survive their
// own JSON round trips with the counts and sums intact — the contract
// /debug/latency depends on.
func TestBreakdownThroughTelemetry(t *testing.T) {
	fb := &perf.FrameBreakdown{
		Algorithm: "new",
		Workers:   2,
		WallNS:    int64(10 * time.Millisecond),
		PerWorker: []perf.WorkerBreakdown{
			{Worker: 0, ClearNS: 1e6, CompositeOwnNS: 3e6, WarpNS: 2e6, WaitNS: 5e5, TotalNS: 65e5},
			{Worker: 1, ClearNS: 1e6, CompositeOwnNS: 4e6, CompositeStealNS: 1e6, WarpNS: 3e6, TotalNS: 9e6},
		},
	}

	data, err := fb.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back perf.FrameBreakdown
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}

	h := NewHistogram("warp_seconds", "per-worker warp time")
	var wantSum int64
	for i := range back.PerWorker {
		h.ObserveNS(back.PerWorker[i].WarpNS)
		wantSum += back.PerWorker[i].WarpNS
	}
	snap := h.Snapshot()
	if snap.Count != int64(len(back.PerWorker)) || snap.SumNS != wantSum {
		t.Fatalf("snapshot count/sum = %d/%d, want %d/%d",
			snap.Count, snap.SumNS, len(back.PerWorker), wantSum)
	}

	// The snapshot itself marshals and unmarshals losslessly, so merged
	// multi-process digests can travel as JSON.
	sdata, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var snapBack HistogramSnapshot
	if err := json.Unmarshal(sdata, &snapBack); err != nil {
		t.Fatal(err)
	}
	if snapBack.Count != snap.Count || snapBack.SumNS != snap.SumNS {
		t.Fatalf("snapshot round trip lost count/sum: %+v", snapBack)
	}
	if snapBack.Summary() != snap.Summary() {
		t.Fatalf("round-tripped snapshot digests differently: %+v vs %+v",
			snapBack.Summary(), snap.Summary())
	}

	// The quantile digest keeps its wire names (the /debug/latency
	// schema) and round-trips exactly.
	sum := snap.Summary()
	qdata, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"count"`, `"mean_ms"`, `"p50_ms"`, `"p99_ms"`, `"max_ms"`} {
		if !strings.Contains(string(qdata), key) {
			t.Fatalf("quantile JSON missing %s: %s", key, qdata)
		}
	}
	var sumBack QuantileSummary
	if err := json.Unmarshal(qdata, &sumBack); err != nil {
		t.Fatal(err)
	}
	if sumBack != sum {
		t.Fatalf("quantile round trip: %+v != %+v", sumBack, sum)
	}
	// Sanity on the digest itself: both 2-3ms warp observations land
	// within the histogram's 6.25% relative-error bound.
	if sum.MaxMS < 3 || sum.MaxMS > 3*1.07 {
		t.Fatalf("max %.3fms outside [3, 3.2]", sum.MaxMS)
	}
}
