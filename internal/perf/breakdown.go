package perf

import (
	"encoding/json"
	"sync"

	"shearwarp/internal/stats"
)

// WorkerBreakdown is one worker's share of a frame, in the paper's
// Figure 5/6 vocabulary: busy time split by phase, explicit
// synchronization time, and load-imbalance time (the part of the frame's
// wall clock this worker spent neither busy nor in a tracked wait).
// TotalNS is the time the worker's spans record, busy plus wait.
type WorkerBreakdown struct {
	Worker           int   `json:"worker"`
	ClearNS          int64 `json:"clear_ns"`
	CompositeOwnNS   int64 `json:"composite_own_ns"`
	CompositeStealNS int64 `json:"composite_steal_ns"`
	WaitNS           int64 `json:"wait_ns"`
	WarpNS           int64 `json:"warp_ns"`
	TotalNS          int64 `json:"total_ns"`
	ImbalanceNS      int64 `json:"imbalance_ns"`
	Scanlines        int64 `json:"scanlines"`
	Chunks           int64 `json:"chunks"`
	Steals           int64 `json:"steals"`
	EarlyTermSkips   int64 `json:"early_term_skips"`
	WarpSpans        int64 `json:"warp_spans"`
}

// BusyNS is the worker's useful work: everything but waits and idle.
func (w *WorkerBreakdown) BusyNS() int64 {
	return w.ClearNS + w.CompositeOwnNS + w.CompositeStealNS + w.WarpNS
}

// FrameBreakdown is the per-worker execution-time breakdown of one frame,
// the native analog of the paper's Figure 5/6 stacked bars. WallNS is the
// envelope of the frame's worker spans: first worker span start to last
// worker span end.
type FrameBreakdown struct {
	Algorithm string            `json:"algorithm"`
	Workers   int               `json:"workers"`
	WallNS    int64             `json:"wall_ns"`
	PerWorker []WorkerBreakdown `json:"per_worker"`
}

// ImbalanceFrac is the frame's aggregate load-imbalance fraction: the
// mean per-worker imbalance time divided by the frame's wall time — the
// fraction of the machine's capacity the frame left idle outside tracked
// waits (0 = perfectly balanced).
func (fb *FrameBreakdown) ImbalanceFrac() float64 {
	if fb == nil || fb.WallNS <= 0 || len(fb.PerWorker) == 0 {
		return 0
	}
	var imb int64
	for i := range fb.PerWorker {
		imb += fb.PerWorker[i].ImbalanceNS
	}
	return float64(imb) / float64(fb.WallNS) / float64(len(fb.PerWorker))
}

// BusyFrac is the mean per-worker busy time divided by the wall time.
func (fb *FrameBreakdown) BusyFrac() float64 {
	if fb == nil || fb.WallNS <= 0 || len(fb.PerWorker) == 0 {
		return 0
	}
	var busy int64
	for i := range fb.PerWorker {
		busy += fb.PerWorker[i].BusyNS()
	}
	return float64(busy) / float64(fb.WallNS) / float64(len(fb.PerWorker))
}

// ms formats nanoseconds as milliseconds with microsecond precision.
func ms(ns int64) string { return stats.F(float64(ns)/1e6, 3) }

// Table renders the breakdown as a paper-style Figure 5/6 table: one row
// per worker with busy time split by phase, synchronization time, and
// imbalance time, plus the work counters that explain the split.
func (fb *FrameBreakdown) Table() *stats.Table {
	t := &stats.Table{
		ID:    "phases-" + fb.Algorithm,
		Title: "per-worker execution-time breakdown (" + fb.Algorithm + " algorithm)",
		Columns: []string{"proc", "clear(ms)", "comp-own(ms)", "comp-steal(ms)", "warp(ms)",
			"busy(ms)", "wait(ms)", "imbal(ms)", "scanlines", "chunks", "steals", "early-skips", "warp-spans"},
	}
	for i := range fb.PerWorker {
		w := &fb.PerWorker[i]
		t.AddRow(
			stats.I(int64(w.Worker)),
			ms(w.ClearNS), ms(w.CompositeOwnNS), ms(w.CompositeStealNS), ms(w.WarpNS),
			ms(w.BusyNS()), ms(w.WaitNS), ms(w.ImbalanceNS),
			stats.I(w.Scanlines), stats.I(w.Chunks), stats.I(w.Steals),
			stats.I(w.EarlyTermSkips), stats.I(w.WarpSpans),
		)
	}
	t.AddNote("wall %sms over %d workers; busy %.1f%%, imbalance %.1f%% of machine capacity",
		ms(fb.WallNS), fb.Workers, 100*fb.BusyFrac(), 100*fb.ImbalanceFrac())
	t.AddNote("busy/wait/imbal map to the paper's Fig. 5-6 categories: computation, synchronization, load imbalance")
	return t
}

// JSON marshals the breakdown (indented, stable field order).
func (fb *FrameBreakdown) JSON() ([]byte, error) {
	return json.MarshalIndent(fb, "", "  ")
}

// Cumulative aggregates frame breakdowns across a run — the backing store
// for shearwarpd's /metrics phases. Add and Snapshot
// are safe to call concurrently from any number of goroutines: both take
// the same mutex, so a snapshot always observes whole frames — never a
// frame whose phases are partially accumulated.
type Cumulative struct {
	mu        sync.Mutex
	frames    int64
	wallNS    int64
	phaseNS   [NumPhases]int64   // summed across workers and frames
	counts    [NumCounters]int64 // summed across workers and frames
	imbalance float64            // sum of per-frame ImbalanceFrac
}

// Add accumulates one frame's breakdown.
func (c *Cumulative) Add(fb *FrameBreakdown) {
	if c == nil || fb == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames++
	c.wallNS += fb.WallNS
	c.imbalance += fb.ImbalanceFrac()
	for i := range fb.PerWorker {
		w := &fb.PerWorker[i]
		c.phaseNS[PhaseClear] += w.ClearNS
		c.phaseNS[PhaseCompositeOwn] += w.CompositeOwnNS
		c.phaseNS[PhaseCompositeSteal] += w.CompositeStealNS
		c.phaseNS[PhaseWait] += w.WaitNS
		c.phaseNS[PhaseWarp] += w.WarpNS
		c.phaseNS[PhaseTotal] += w.TotalNS
		c.counts[CounterScanlines] += w.Scanlines
		c.counts[CounterChunks] += w.Chunks
		c.counts[CounterSteals] += w.Steals
		c.counts[CounterEarlyTerm] += w.EarlyTermSkips
		c.counts[CounterWarpSpans] += w.WarpSpans
	}
}

// CumulativeSnapshot is a marshal-friendly view of a Cumulative.
type CumulativeSnapshot struct {
	Frames           int64            `json:"frames"`
	WallNS           int64            `json:"wall_ns"`
	PhaseNS          map[string]int64 `json:"phase_ns"`
	Counts           map[string]int64 `json:"counts"`
	MeanImbalancePct float64          `json:"mean_imbalance_pct"`
}

// Snapshot returns the current totals. The result is a fresh value; the
// maps are never shared with later snapshots.
func (c *Cumulative) Snapshot() CumulativeSnapshot {
	var s CumulativeSnapshot
	s.PhaseNS = make(map[string]int64, NumPhases)
	s.Counts = make(map[string]int64, NumCounters)
	if c == nil {
		return s
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s.Frames = c.frames
	s.WallNS = c.wallNS
	for ph := Phase(0); ph < NumPhases; ph++ {
		s.PhaseNS[ph.String()] = c.phaseNS[ph]
	}
	for ct := Counter(0); ct < NumCounters; ct++ {
		s.Counts[ct.String()] = c.counts[ct]
	}
	if c.frames > 0 {
		s.MeanImbalancePct = 100 * c.imbalance / float64(c.frames)
	}
	return s
}
