package perf

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// synthetic is a breakdown with exact values, as telemetry.Breakdown
// derives them, so the fractions are checkable: wall 10ms; worker 0 busy
// 6ms + wait 1ms (imbalance 3ms), worker 1 busy 10ms + wait 2ms
// (imbalance clamped at 0).
func synthetic(alg string) *FrameBreakdown {
	ms := int64(time.Millisecond)
	return &FrameBreakdown{
		Algorithm: alg,
		Workers:   2,
		WallNS:    10 * ms,
		PerWorker: []WorkerBreakdown{
			{Worker: 0, ClearNS: 1 * ms, CompositeOwnNS: 2 * ms, CompositeStealNS: 1 * ms, WarpNS: 2 * ms,
				WaitNS: 1 * ms, TotalNS: 7 * ms, ImbalanceNS: 3 * ms, Scanlines: 40, Chunks: 10, Steals: 2},
			{Worker: 1, CompositeOwnNS: 8 * ms, WarpNS: 2 * ms, WaitNS: 2 * ms, TotalNS: 12 * ms,
				Scanlines: 60, WarpSpans: 64},
		},
	}
}

func TestBreakdownMath(t *testing.T) {
	fb := synthetic("new")
	if w0 := &fb.PerWorker[0]; w0.BusyNS() != int64(6*time.Millisecond) {
		t.Fatalf("worker 0 busy %d", w0.BusyNS())
	}
	// Mean imbalance = (3ms + 0) / 2 / 10ms = 0.15.
	if got := fb.ImbalanceFrac(); got < 0.149 || got > 0.151 {
		t.Fatalf("imbalance frac %f, want 0.15", got)
	}
	// Mean busy = (6ms + 10ms) / 2 / 10ms = 0.8.
	if got := fb.BusyFrac(); got < 0.799 || got > 0.801 {
		t.Fatalf("busy frac %f, want 0.8", got)
	}
}

// TestNilCollectorIsInert checks the disabled-breakdown contract of what
// collects per-frame data in this package: a missing or empty breakdown
// reports zero fractions, a nil Cumulative ignores frames and snapshots
// empty, and a live Cumulative ignores a missing breakdown.
func TestNilCollectorIsInert(t *testing.T) {
	var nilFB *FrameBreakdown
	if nilFB.ImbalanceFrac() != 0 || nilFB.BusyFrac() != 0 || (&FrameBreakdown{}).BusyFrac() != 0 {
		t.Fatal("empty breakdown reported non-zero fractions")
	}
	var nilCum *Cumulative
	nilCum.Add(synthetic("new"))
	if s := nilCum.Snapshot(); s.Frames != 0 || s.WallNS != 0 || s.Counts == nil {
		t.Fatalf("nil cumulative recorded data: %+v", s)
	}
	var cum Cumulative
	cum.Add(nil)
	if s := cum.Snapshot(); s.Frames != 0 || s.PhaseNS["composite-own"] != 0 {
		t.Fatalf("cumulative counted a missing breakdown: %+v", s)
	}
}

func TestBreakdownTableAndJSON(t *testing.T) {
	fb := synthetic("old")
	s := fb.Table().String()
	for _, want := range []string{"phases-old", "imbal(ms)", "scanlines", "steals",
		"load imbalance", "busy 80.0%"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table missing %q:\n%s", want, s)
		}
	}
	data, err := fb.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back FrameBreakdown
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Algorithm != "old" || len(back.PerWorker) != 2 ||
		back.PerWorker[0].ImbalanceNS != fb.PerWorker[0].ImbalanceNS {
		t.Fatalf("JSON round-trip mismatch: %+v", back)
	}
}

func TestPhaseAndCounterNames(t *testing.T) {
	seen := map[string]bool{}
	for ph := Phase(0); ph < NumPhases; ph++ {
		n := ph.String()
		if n == "unknown" || seen[n] {
			t.Fatalf("phase %d name %q", ph, n)
		}
		seen[n] = true
	}
	for ct := Counter(0); ct < NumCounters; ct++ {
		n := ct.String()
		if n == "unknown" || seen[n] {
			t.Fatalf("counter %d name %q", ct, n)
		}
		seen[n] = true
	}
}

func TestCumulativeAggregation(t *testing.T) {
	var cum Cumulative
	fb := synthetic("new")
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cum.Add(fb)
			_ = cum.Snapshot()
		}()
	}
	wg.Wait()
	s := cum.Snapshot()
	if s.Frames != 10 {
		t.Fatalf("frames = %d", s.Frames)
	}
	if s.WallNS != 10*fb.WallNS {
		t.Fatalf("wall = %d", s.WallNS)
	}
	if s.Counts["scanlines"] != 10*(40+60) {
		t.Fatalf("scanlines = %d", s.Counts["scanlines"])
	}
	if s.PhaseNS["composite-own"] != 10*int64(10*time.Millisecond) {
		t.Fatalf("composite-own = %d", s.PhaseNS["composite-own"])
	}
	if s.MeanImbalancePct < 14.9 || s.MeanImbalancePct > 15.1 {
		t.Fatalf("mean imbalance pct = %f", s.MeanImbalancePct)
	}
	// A zero/nil Cumulative snapshots cleanly (/metrics can be scraped
	// before the first frame).
	var empty *Cumulative
	if snap := empty.Snapshot(); snap.Frames != 0 || snap.PhaseNS == nil {
		t.Fatal("nil cumulative snapshot malformed")
	}
}

// TestCumulativeAddSnapshotHammer is the -race stress for the documented
// Add/Snapshot concurrency contract: dedicated adders and snapshotters
// run flat out, and every snapshot must observe whole frames only —
// frame count and phase totals advance in lockstep, never torn.
func TestCumulativeAddSnapshotHammer(t *testing.T) {
	var cum Cumulative
	fb := synthetic("new")
	perFrameOwn := int64(0)
	for i := range fb.PerWorker {
		perFrameOwn += fb.PerWorker[i].CompositeOwnNS
	}

	const adders, snapshotters, rounds = 4, 4, 500
	var wg sync.WaitGroup
	for a := 0; a < adders; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				cum.Add(fb)
			}
		}()
	}
	errc := make(chan error, snapshotters)
	for sidx := 0; sidx < snapshotters; sidx++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s := cum.Snapshot()
				if s.PhaseNS["composite-own"] != s.Frames*perFrameOwn {
					errc <- fmt.Errorf("torn snapshot: %d frames but composite-own %d (want %d)",
						s.Frames, s.PhaseNS["composite-own"], s.Frames*perFrameOwn)
					return
				}
				if s.WallNS != s.Frames*fb.WallNS {
					errc <- fmt.Errorf("torn snapshot: %d frames but wall %d", s.Frames, s.WallNS)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if s := cum.Snapshot(); s.Frames != adders*rounds {
		t.Fatalf("final frames = %d, want %d", s.Frames, adders*rounds)
	}
}
