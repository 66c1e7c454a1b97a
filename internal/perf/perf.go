// Package perf is the vocabulary of the native-execution phase breakdowns:
// per-worker, per-frame phase times and work counters that reproduce the
// paper's Figure 5/6 execution-time breakdowns (busy vs. synchronization
// vs. load imbalance in the compositing and warp phases) from real
// wall-clock runs rather than the cycle simulator.
//
// The renderers record nothing here. Their workers write timestamped spans
// into a telemetry.FrameSpans recorder, and telemetry.Breakdown derives a
// FrameBreakdown from those spans after the frame's completion barrier, so
// every view of a frame — LastBreakdown, the span timeline, the server's
// phase histograms — reads the same numbers.
package perf

// Phase identifies one timed section of a frame.
type Phase int

// The timed phases of a parallel frame. PhaseWait accumulates all
// explicit synchronization: the post-clear rendezvous, the inter-phase
// barrier of the old algorithm, and the per-band completion waits of the
// new algorithm.
const (
	PhaseClear          Phase = iota // intermediate-image clear stripe
	PhaseCompositeOwn                // compositing chunks from the worker's own assignment
	PhaseCompositeSteal              // compositing stolen chunks
	PhaseWait                        // barriers and band-completion waits
	PhaseWarp                        // warping spans/tiles of the final image
	PhaseTotal                       // the worker's whole frame, wall clock
	NumPhases
)

// String returns the short phase name used in tables and JSON. The busy
// phases' names are also the names of the spans the renderers record.
func (p Phase) String() string {
	switch p {
	case PhaseClear:
		return "clear"
	case PhaseCompositeOwn:
		return "composite-own"
	case PhaseCompositeSteal:
		return "composite-steal"
	case PhaseWait:
		return "wait"
	case PhaseWarp:
		return "warp"
	case PhaseTotal:
		return "total"
	}
	return "unknown"
}

// Counter identifies one per-worker work tally.
type Counter int

// The per-worker work counters.
const (
	CounterScanlines Counter = iota // intermediate scanlines composited
	CounterChunks                   // compositing chunks processed in total
	CounterSteals                   // chunks obtained by stealing
	CounterEarlyTerm                // early-ray-termination skips (opaque-run link traversals)
	CounterWarpSpans                // final-image row spans / tile rows warped
	NumCounters
)

// String returns the short counter name used in tables and JSON.
func (c Counter) String() string {
	switch c {
	case CounterScanlines:
		return "scanlines"
	case CounterChunks:
		return "chunks"
	case CounterSteals:
		return "steals"
	case CounterEarlyTerm:
		return "early-term"
	case CounterWarpSpans:
		return "warp-spans"
	}
	return "unknown"
}
