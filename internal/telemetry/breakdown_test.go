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

	h := NewHistogram()
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

// TestBreakdownFromSpans pins the one derivation every breakdown view
// reads: busy per phase from busy spans by name, wait from sync spans,
// wall from the worker spans' envelope (request-lane spans excluded),
// imbalance as the clamped remainder; rows reused in place; and no
// breakdown at all from a recorder that dropped spans.
func TestBreakdownFromSpans(t *testing.T) {
	const ms = int64(time.Millisecond)
	spans := []Span{
		{Name: "admission", Cat: CatRequest, Worker: -1, StartNS: 0, DurNS: 5 * ms},
		{Name: "clear", Cat: CatBusy, Worker: 0, StartNS: 10 * ms, DurNS: 1 * ms},
		{Name: "composite-own", Cat: CatBusy, Worker: 0, StartNS: 11 * ms, DurNS: 2 * ms},
		{Name: "composite-steal", Cat: CatBusy, Worker: 0, StartNS: 13 * ms, DurNS: 1 * ms},
		{Name: "band-wait", Cat: CatSync, Worker: 0, StartNS: 14 * ms, DurNS: 1 * ms},
		{Name: "warp", Cat: CatBusy, Worker: 0, StartNS: 15 * ms, DurNS: 2 * ms},
		{Name: "composite-own", Cat: CatBusy, Worker: 1, StartNS: 10 * ms, DurNS: 8 * ms},
		{Name: "warp", Cat: CatBusy, Worker: 1, StartNS: 18 * ms, DurNS: 2 * ms},
		{Name: "barrier-wait", Cat: CatSync, Worker: 1, StartNS: 18 * ms, DurNS: 2 * ms},
	}
	var fb perf.FrameBreakdown
	if !Breakdown(&fb, 3, spans, 0) {
		t.Fatal("no breakdown from a complete recording")
	}
	if fb.Workers != 3 || len(fb.PerWorker) != 3 || fb.WallNS != 10*ms {
		t.Fatalf("header: %d workers, %d rows, wall %d; want 3, 3, 10ms", fb.Workers, len(fb.PerWorker), fb.WallNS)
	}
	w0, w1, w2 := fb.PerWorker[0], fb.PerWorker[1], fb.PerWorker[2]
	if w0.ClearNS != ms || w0.CompositeOwnNS != 2*ms || w0.CompositeStealNS != ms || w0.WarpNS != 2*ms ||
		w0.WaitNS != ms || w0.TotalNS != 7*ms || w0.ImbalanceNS != 3*ms {
		t.Fatalf("worker 0: %+v", w0)
	}
	// Busy 10ms plus wait 2ms overruns the 10ms wall: imbalance clamps at 0.
	if w1.BusyNS() != 10*ms || w1.WaitNS != 2*ms || w1.ImbalanceNS != 0 {
		t.Fatalf("worker 1: %+v", w1)
	}
	// A worker that recorded nothing idled the whole frame.
	if w2.Worker != 2 || w2.BusyNS() != 0 || w2.ImbalanceNS != 10*ms {
		t.Fatalf("worker 2: %+v", w2)
	}

	// The next frame reuses the rows, zeroed, and allocates nothing.
	rows := &fb.PerWorker[0]
	one := spans[6:7]
	if allocs := testing.AllocsPerRun(10, func() { Breakdown(&fb, 0, one, 0) }); allocs != 0 {
		t.Fatalf("Breakdown into reused rows allocates %.0f times", allocs)
	}
	if &fb.PerWorker[0] != rows || fb.Workers != 2 || fb.PerWorker[0].ClearNS != 0 || fb.PerWorker[1].BusyNS() != 8*ms {
		t.Fatalf("reused breakdown: %+v", fb)
	}

	if Breakdown(&fb, 3, spans, 1) || fb.Workers != 0 || len(fb.PerWorker) != 0 {
		t.Fatalf("a recorder with dropped spans yielded a breakdown: %+v", fb)
	}
	if !strings.Contains(Timeline(&Trace{Spans: spans, Dropped: 2}), "2 spans dropped") {
		t.Fatal("the timeline of a trace with dropped spans does not say so")
	}
}
