package render

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"shearwarp/internal/composite"
	"shearwarp/internal/faultinject"
	"shearwarp/internal/img"
	"shearwarp/internal/telemetry"
	"shearwarp/internal/warp"
)

// The frame lifecycle. Serial, old and new differ only in their schedule:
// which phases a worker passes through and how work is handed out. The
// frame around that schedule is the same for all three and lives here:
// cancellation, the panic domains, and the phase marks that feed the fault
// injector, the FrameError attribution and the span recorder.

// Phase is one step of a frame worker's schedule.
type Phase uint8

// The phases of the three schedules. Serial runs setup, composite, warp;
// old adds steal and barrier; new runs clear, clear-wait, composite,
// steal, then band-wait and warp per task.
const (
	PhaseSetup     Phase = iota // factorization, images, schedule (request lane)
	PhaseClear                  // clearing a stripe of the reused intermediate image
	PhaseClearWait              // the rendezvous after the clear
	PhaseComposite              // compositing the worker's own scanlines
	PhaseSteal                  // compositing stolen scanlines
	PhaseBarrier                // the barrier between compositing and warping
	PhaseBandWait               // waiting for the bands a warp task reads
	PhaseWarp                   // warping
)

// phases names each phase for every instrument: its fault site, which is
// also the FrameError.Phase of a panic in it, and the span, with its
// category, that records it. PhaseClearWait is never visited and reports
// as "clear". The "scanline" site is visited per composited row inside
// the two compositing phases (Worker.Scanline).
var phases = [...]struct{ site, span, cat string }{
	PhaseSetup:     {"setup", "setup", telemetry.CatRequest},
	PhaseClear:     {"clear", "clear", telemetry.CatBusy},
	PhaseClearWait: {"clear", "clear-rendezvous", telemetry.CatSync},
	PhaseComposite: {"composite", "composite-own", telemetry.CatBusy},
	PhaseSteal:     {"steal", "composite-steal", telemetry.CatBusy},
	PhaseBarrier:   {"barrier", "barrier-wait", telemetry.CatSync},
	PhaseBandWait:  {"band-wait", "band-wait", telemetry.CatSync},
	PhaseWarp:      {"warp", "warp", telemetry.CatBusy},
}

// FrameError reports a frame that failed mid-render: a panic in a worker
// or in setup was recovered and converted, its peers were cancelled
// through the frame's abort flag, and the renderer was left in a state
// where the next frame renders byte-identically. The render service maps
// it to a 500 and keeps serving.
type FrameError struct {
	Worker int    // panicking worker id, or -1 for setup
	Phase  string // "setup", "clear", "composite", "steal", "barrier", "band-wait", "warp", or "raycast"
	Band   int    // the band (or old-algorithm warp tile) last visited, or -1
	Value  any    // the recovered panic value
	Stack  []byte // goroutine stack captured at recovery
}

// NewFrameError converts a recovered panic value into a FrameError,
// capturing the recovering goroutine's stack. Call it from the deferred
// recover itself so the stack still contains the panic site.
func NewFrameError(worker int, phase string, band int, value any) *FrameError {
	return &FrameError{Worker: worker, Phase: phase, Band: band, Value: value, Stack: debug.Stack()}
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("render: frame failed in phase %q (worker %d, band %d): %v",
		e.Phase, e.Worker, e.Band, e.Value)
}

// Unwrap exposes an error panic value to errors.Is/As, so callers can see
// through to injected faults or cache build failures.
func (e *FrameError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Lifecycle is a frame's failure domain: its abort flag, its first error
// and the watcher that turns a cancelled context into an abort. A renderer
// that runs frames one after another may reuse one Lifecycle; the frame
// generation keeps a watcher that outlives its frame from aborting the
// next one.
type Lifecycle struct {
	// Aborted is raised when the frame fails or its context is cancelled.
	// Workers poll it once per scanline, row or tile and stop; an
	// algorithm's synchronization must still let every peer finish.
	Aborted atomic.Bool
	// OnAbort, when set, runs after every raise of Aborted, so workers
	// asleep on an algorithm's condition can recheck it.
	OnAbort func()
	// OnPanic, when set, runs in a panicking worker's recovery after the
	// frame has aborted, with the phase the worker died in, so the
	// algorithm can arrive at a rendezvous on the dead worker's behalf.
	OnPanic func(Phase)

	faults *faultinject.Injector
	spans  *telemetry.FrameSpans
	stop   func() bool
	mu     sync.Mutex
	err    error
	gen    uint64
}

// Workers returns the worker count of a frame asked to run on procs
// workers: at least one.
func Workers(procs int) int { return max(procs, 1) }

// Begin starts a frame of r under ctx, or returns ctx's error if ctx is
// already done. It clears the previous frame's abort, takes r's fault
// injector and span recorder for the frame, and, only when ctx can be
// cancelled, installs the watcher that aborts this frame on cancellation;
// a background-context frame stays free of the watcher's allocation.
// Every Begin that returns nil is paired with one End.
func (l *Lifecycle) Begin(ctx context.Context, r *Renderer) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	l.faults, l.spans = r.Faults, r.Spans
	l.mu.Lock()
	l.gen++
	gen := l.gen
	l.err = nil
	l.mu.Unlock()
	l.Aborted.Store(false)
	if ctx.Done() != nil {
		l.stop = context.AfterFunc(ctx, func() { l.abort(gen, ctx.Err()) })
	}
	return nil
}

// Setup runs the frame's setup on the request lane inside the frame's
// panic domain: it visits the setup fault site, records the setup span,
// and turns a panic into the frame's *FrameError (worker -1, phase
// "setup"). It reports whether the frame is still live, that is neither
// failed nor cancelled, so its workers should run.
func (l *Lifecycle) Setup(setup func()) bool {
	l.setup(setup)
	return !l.Aborted.Load()
}

func (l *Lifecycle) setup(setup func()) {
	w := l.Worker(-1, PhaseSetup)
	defer w.Recover()
	w.Visit(-1)
	setup()
	w.End()
}

// End ends the frame and returns its error: the first failure; else the
// context's error, so a cancellation that lands after the last worker
// finished still fails the frame; else nil.
func (l *Lifecycle) End(ctx context.Context) error {
	if l.stop != nil {
		l.stop()
		l.stop = nil
	}
	if !l.Aborted.Load() {
		return ctx.Err()
	}
	l.mu.Lock()
	err := l.err
	l.mu.Unlock()
	if err == nil {
		err = ctx.Err()
	}
	if err == nil {
		err = context.Canceled
	}
	return err
}

// abort fails frame gen with err, keeping its first error, and raises the
// abort flag. It does nothing once a later frame has begun.
func (l *Lifecycle) abort(gen uint64, err error) {
	l.mu.Lock()
	if gen != l.gen {
		l.mu.Unlock()
		return
	}
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
	l.Aborted.Store(true)
	if l.OnAbort != nil {
		l.OnAbort()
	}
}

// Worker starts worker id's share of the frame in phase ph: the first span
// starts now, and ph's fault site waits for Visit. Call it on the worker's
// goroutine, after Begin.
func (l *Lifecycle) Worker(id int, ph Phase) Worker {
	w := Worker{l: l, fi: l.faults, sr: l.spans, id: id, phase: ph, band: -1}
	if w.sr != nil {
		w.t0 = time.Now()
	}
	return w
}

// Worker marks one worker's way through a frame. At each phase boundary
// one call records the span that ends there, reading the clock once and
// only when a recorder is attached, and sets the phase and band that a
// panic's FrameError names; Visit and Mark also visit the fault site.
type Worker struct {
	l     *Lifecycle
	fi    *faultinject.Injector
	sr    *telemetry.FrameSpans
	t0    time.Time
	id    int
	phase Phase
	band  int
}

// Visit visits the current phase's fault site at band, which a panic from
// here on names.
func (w *Worker) Visit(band int) {
	w.band = band
	if w.fi != nil {
		w.fi.Visit(phases[w.phase].site, w.id, band)
	}
}

// Scanline visits the per-row "scanline" fault site at the current band.
func (w *Worker) Scanline() {
	if w.fi != nil {
		w.fi.Visit("scanline", w.id, w.band)
	}
}

// Enter ends the current phase, recording its span, and enters ph with no
// band. ph's fault site waits for Visit.
func (w *Worker) Enter(ph Phase) {
	w.End()
	w.phase, w.band = ph, -1
}

// Mark is the whole phase boundary: it ends the current phase, recording
// its span, enters ph, and visits ph's fault site at band.
func (w *Worker) Mark(ph Phase, band int) {
	w.Enter(ph)
	w.Visit(band)
}

// End records the span of the current phase, which ends now.
func (w *Worker) End() {
	if w.sr == nil {
		return
	}
	now := time.Now()
	p := &phases[w.phase]
	w.sr.Record(w.id, p.span, p.cat, w.t0, now.Sub(w.t0))
	w.t0 = now
}

// Phase returns the worker's current phase.
func (w *Worker) Phase() Phase { return w.phase }

// Recover is a worker's deferred recover: a panic becomes the frame's
// *FrameError, naming the worker's phase and band, and aborts its peers;
// then the algorithm's OnPanic hook runs for a frame worker.
func (w *Worker) Recover() {
	v := recover()
	if v == nil {
		return
	}
	w.l.abort(w.l.gen, NewFrameError(w.id, phases[w.phase].site, w.band, v))
	if w.id >= 0 && w.l.OnPanic != nil {
		w.l.OnPanic(w.phase)
	}
}

// ProcStats reports one parallel worker's share of a frame.
type ProcStats struct {
	Composite composite.Counters
	Warp      warp.Counters
	Steals    int   // chunks obtained by stealing
	Chunks    int   // chunks composited in total
	Tiles     int   // warp tiles processed (old algorithm)
	Profiled  int64 // profiling overhead cycles charged this frame (new algorithm)
}

// Result is a frame rendered by a parallel algorithm plus its per-worker
// accounting.
type Result struct {
	Out     *img.Final
	PerProc []ProcStats
}

// Stats aggregates the per-worker counters; profiling overhead counts as
// compositing.
func (r *Result) Stats() FrameStats {
	var st FrameStats
	for i := range r.PerProc {
		st.Composite.Add(r.PerProc[i].Composite)
		st.Composite.Cycles += r.PerProc[i].Profiled
		st.Warp.Add(r.PerProc[i].Warp)
	}
	return st
}
