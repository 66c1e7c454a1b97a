package newalg

import (
	"context"
	rtrace "runtime/trace"
	"sync"
	"sync/atomic"
	"time"

	"shearwarp/internal/composite"
	"shearwarp/internal/faultinject"
	"shearwarp/internal/img"
	"shearwarp/internal/par"
	"shearwarp/internal/render"
	"shearwarp/internal/telemetry"
	"shearwarp/internal/warp"
)

// Config tunes the new parallel algorithm.
type Config struct {
	Procs         int  // number of workers; 0 means 1
	AlwaysProfile bool // profile every frame (ablation)
}

func (c *Config) normalize() {
	if c.Procs < 1 {
		c.Procs = 1
	}
}

// ProcStats reports one worker's share of a frame.
type ProcStats struct {
	Composite composite.Counters
	Warp      warp.Counters
	Steals    int   // chunks obtained by stealing
	Chunks    int   // chunks composited in total
	Profiled  int64 // profiling overhead cycles charged this frame
}

// Result is a rendered frame plus its per-processor accounting. The result
// (including Out and PerProc) points into the renderer's reusable per-frame
// storage: it is valid until the next RenderFrame call on the same
// renderer.
type Result struct {
	Out        *img.Final
	PerProc    []ProcStats
	Boundaries []int // the partition used (len Procs+1)
	Profiled   bool  // whether this frame collected a profile
	Region     Region
}

// Stats aggregates the per-processor counters.
func (r *Result) Stats() render.FrameStats {
	var st render.FrameStats
	for i := range r.PerProc {
		st.Composite.Add(r.PerProc[i].Composite)
		st.Composite.Cycles += r.PerProc[i].Profiled
		st.Warp.Add(r.PerProc[i].Warp)
	}
	return st
}

// workerRec is one worker's failure-domain bookkeeping for the current
// frame: which phase and band it is in (read by its own deferred recover
// to build a FrameError) and whether it has passed the clear rendezvous
// (so recovery can release peers blocked there). Each record is written
// only by its own worker goroutine.
type workerRec struct {
	phase   string
	band    int
	cleared bool
}

// Renderer carries the cross-frame state of the new algorithm: the
// schedule planner, which holds the last collected per-scanline profile and
// the viewpoint it was collected at, plus the reusable per-frame resources
// (images, contexts, worker pool) that make the steady-state frame loop
// allocation free.
type Renderer struct {
	R   *render.Renderer
	Cfg Config

	// Faults, when non-nil, injects deterministic faults at the worker
	// phase sites (internal/faultinject). Nil-checked everywhere; the
	// disabled path costs one branch per site. Set it between frames only.
	Faults *faultinject.Injector

	// Spans, when non-nil, receives one timestamped span per worker phase
	// (clear, rendezvous wait, composite-own/steal, band-wait, warp) —
	// the raw material for the service's per-request traces and for the
	// paper's Figure 5/6 breakdown (telemetry.Breakdown). Nil-checked at
	// every site, so the default path performs no clock reads and renders
	// byte-identically; swap it only between frames.
	Spans *telemetry.FrameSpans

	// Reusable per-frame state. Workers read the per-frame fields after
	// receiving a start token (the channel send publishes them) and the
	// main goroutine reads worker results after frameWG.Wait.
	fr       render.Frame
	res      Result
	plan     Planner
	bmu      sync.Mutex
	bandDone []atomic.Bool   // per-band completion flags, replace the barrier
	bandCond *sync.Cond      // signals band completion and frame aborts; locker is bmu
	clearWG  sync.WaitGroup  // rendezvous after the parallel image clear
	frameWG  sync.WaitGroup  // frame completion
	ctxPool  sync.Pool       // *composite.Ctx
	start    []chan struct{} // per-worker frame-start tokens
	wstate   []workerRec     // per-worker failure bookkeeping
	traceCtx context.Context // runtime/trace task context of the current frame

	// Cooperative cancellation and panic isolation. abortFlag is the
	// shared cancel flag every worker polls at scanline granularity (one
	// predictable load); abortErr holds the first failure; frameGen
	// guards against a stale context watcher aborting a later frame.
	abortFlag atomic.Bool
	abortMu   sync.Mutex
	abortErr  error
	frameGen  uint64
	setupErr  error
}

// NewRenderer wraps a render.Renderer with the new algorithm's state.
func NewRenderer(r *render.Renderer, cfg Config) *Renderer {
	cfg.normalize()
	return &Renderer{R: r, Cfg: cfg, plan: NewPlanner(cfg, 0, 0, 0)}
}

// RenderFrame renders one frame with native goroutines. The output is
// bit-identical to the serial renderer's for the same viewpoint.
//
// Frames after the first allocate nothing: the images and the planner's
// partition scratch, band queue and warp tasks live on the renderer,
// compositing contexts come from a pool, and the workers are persistent
// goroutines woken by buffered start tokens. The returned Result points into
// that reusable storage and is valid until the next RenderFrame call.
//
// RenderFrame is the uncancellable entry point: it runs under
// context.Background and re-panics a *render.FrameError if a worker
// panicked. Services use RenderFrameCtx.
func (nr *Renderer) RenderFrame(yaw, pitch float64) *Result {
	res, err := nr.RenderFrameCtx(context.Background(), yaw, pitch)
	if err != nil {
		panic(err)
	}
	return res
}

// RenderFrameCtx is RenderFrame with cooperative cancellation and panic
// isolation. When ctx is cancelled, every worker observes the shared
// abort flag within one scanline of work (or one condition-variable
// wakeup if it is waiting on a band) and the call returns ctx's error. A
// panic in any worker or in setup is recovered into a *render.FrameError:
// peers are aborted the same way, nothing is poisoned, and the next frame
// on this renderer renders byte-identically to an undisturbed one. On
// error the returned Result is nil.
func (nr *Renderer) RenderFrameCtx(ctx context.Context, yaw, pitch float64) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := nr.Cfg

	if nr.bandCond == nil {
		nr.bandCond = sync.NewCond(&nr.bmu)
	}
	nr.abortMu.Lock()
	nr.frameGen++
	gen := nr.frameGen
	nr.abortErr = nil
	nr.abortMu.Unlock()
	nr.abortFlag.Store(false)

	// One runtime/trace task per frame; the workers' phase regions attach
	// to it. Gated on IsEnabled so the untraced path allocates nothing.
	nr.traceCtx = context.Background()
	var task *rtrace.Task
	if rtrace.IsEnabled() {
		nr.traceCtx, task = rtrace.NewTask(nr.traceCtx, "shearwarp.frame")
	}

	sr := nr.Spans
	var tSetup time.Time
	if sr != nil {
		tSetup = time.Now()
	}
	if err := nr.setupFrame(yaw, pitch); err != nil {
		if task != nil {
			task.End()
		}
		return nil, err
	}
	if sr != nil {
		sr.Record(-1, "setup", telemetry.CatRequest, tSetup, time.Since(tSetup))
	}

	// Watch for external cancellation only when the context is actually
	// cancellable, so the background-context frame loop stays free of the
	// watcher's allocation. The generation check makes a watcher that
	// fires after this frame ends harmless to the next one.
	var stopWatch func() bool
	if ctx.Done() != nil {
		stopWatch = context.AfterFunc(ctx, func() {
			nr.requestAbort(gen, ctx.Err())
		})
	}

	nr.ensureWorkers(cfg.Procs)
	nr.clearWG.Add(cfg.Procs)
	nr.frameWG.Add(cfg.Procs)
	for p := 0; p < cfg.Procs; p++ {
		nr.start[p] <- struct{}{}
	}
	nr.frameWG.Wait()
	if task != nil {
		task.End()
	}
	if stopWatch != nil {
		stopWatch()
	}

	if nr.abortFlag.Load() {
		nr.abortMu.Lock()
		err := nr.abortErr
		nr.abortMu.Unlock()
		if err == nil {
			err = ctx.Err()
		}
		if err == nil {
			err = context.Canceled
		}
		return nil, err
	}
	// A cancellation that lands in the frame's final scanlines can lose
	// the race against frame completion: the workers finish before the
	// watcher raises the abort flag. Honour the context anyway — a
	// cancelled frame never reports success. The completed render is
	// discarded; partition state is unaffected (it never changes output).
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	nr.plan.Commit()
	return &nr.res, nil
}

// setupFrame runs the per-frame setup (factorization, partition, queue and
// image reuse) with panic containment: a panic — a degenerate view matrix,
// an RLE invariant violation surfaced by a cache-fed encoding, an injected
// setup fault — converts to a *render.FrameError before any worker starts.
func (nr *Renderer) setupFrame(yaw, pitch float64) error {
	nr.setupErr = nil
	nr.runSetup(yaw, pitch)
	return nr.setupErr
}

// recoverSetup is the deferred recover of runSetup; a direct method defer
// (no closure) so the steady-state frame loop stays allocation-free.
func (nr *Renderer) recoverSetup() {
	if v := recover(); v != nil {
		nr.setupErr = render.NewFrameError(-1, "setup", -1, v)
	}
}

func (nr *Renderer) runSetup(yaw, pitch float64) {
	defer nr.recoverSetup()
	cfg := nr.Cfg
	nr.Faults.Visit("setup", -1, -1)

	fr := &nr.fr
	nr.R.SetupInto(fr, yaw, pitch)

	res := &nr.res
	res.Out = fr.Out
	if cap(res.PerProc) >= cfg.Procs {
		res.PerProc = res.PerProc[:cfg.Procs]
		clear(res.PerProc)
	} else {
		res.PerProc = make([]ProcStats, cfg.Procs)
	}

	pl := &nr.plan
	pl.Plan(fr, yaw, pitch)
	res.Profiled = pl.Profiling
	res.Boundaries = pl.Boundaries
	res.Region = pl.Region

	// Per-band completion flags replace the global barrier: a band's warp
	// waiters block on bandCond until its flag is set (or the frame
	// aborts). Bands that start empty are complete immediately.
	if len(nr.bandDone) != cfg.Procs {
		nr.bandDone = make([]atomic.Bool, cfg.Procs)
	}
	for p := 0; p < cfg.Procs; p++ {
		nr.bandDone[p].Store(pl.Bands.Complete(p))
	}
}

// requestAbort aborts the frame identified by gen: external cancellation
// goes through here so a watcher that outlives its frame cannot abort a
// later one.
func (nr *Renderer) requestAbort(gen uint64, err error) {
	nr.abortMu.Lock()
	if gen != nr.frameGen {
		nr.abortMu.Unlock()
		return
	}
	if nr.abortErr == nil {
		nr.abortErr = err
	}
	nr.abortMu.Unlock()
	nr.raiseAbort()
}

// abortCurrent aborts the frame in flight; workers (which by construction
// belong to the current frame) report panics through it.
func (nr *Renderer) abortCurrent(err error) {
	nr.abortMu.Lock()
	if nr.abortErr == nil {
		nr.abortErr = err
	}
	nr.abortMu.Unlock()
	nr.raiseAbort()
}

// raiseAbort publishes the abort flag and wakes every band waiter. The
// flag is set before the broadcast so a waiter cannot recheck its
// predicate, miss the flag, and sleep through the wakeup.
func (nr *Renderer) raiseAbort() {
	nr.abortFlag.Store(true)
	nr.bmu.Lock()
	nr.bandCond.Broadcast()
	nr.bmu.Unlock()
}

// ensureWorkers keeps one persistent goroutine per processor, woken once
// per frame by a token on its start channel. If the processor count
// changed, the old workers are shut down by closing their channels.
func (nr *Renderer) ensureWorkers(procs int) {
	if len(nr.start) == procs {
		return
	}
	for _, ch := range nr.start {
		close(ch)
	}
	nr.start = make([]chan struct{}, procs)
	nr.wstate = make([]workerRec, procs)
	for p := 0; p < procs; p++ {
		ch := make(chan struct{}, 1)
		nr.start[p] = ch
		go func(p int, ch chan struct{}) {
			for range ch {
				nr.frameWorker(p)
				nr.frameWG.Done()
			}
		}(p, ch)
	}
}

// Close shuts down the persistent workers. It is optional — an abandoned
// renderer merely parks its goroutines — but callers that create many
// renderers can use it to release them deterministically. The renderer
// must not be used after Close.
func (nr *Renderer) Close() {
	for _, ch := range nr.start {
		close(ch)
	}
	nr.start = nil
}

// frameWorker runs one worker's share of a frame inside its panic domain.
func (nr *Renderer) frameWorker(p int) {
	st := &nr.wstate[p]
	st.phase, st.band, st.cleared = "clear", -1, false
	defer nr.recoverWorker(p)
	nr.renderWorker(p, st)
}

// recoverWorker is each worker's deferred recover (a direct method defer,
// no closure, to keep the frame loop allocation-free). A panic converts
// to a *render.FrameError carrying the worker's phase and band, aborts
// the peers, and — critically for deadlock freedom — still releases the
// clear rendezvous if the worker died before reaching it. Bands the dead
// worker had claimed stay incomplete; their waiters are released by the
// abort broadcast instead of a completion signal.
func (nr *Renderer) recoverWorker(p int) {
	st := &nr.wstate[p]
	if v := recover(); v != nil {
		nr.abortCurrent(render.NewFrameError(p, st.phase, st.band, v))
	}
	if !st.cleared {
		st.cleared = true
		nr.clearWG.Done()
	}
}

// waitBand blocks until band q completes or the frame aborts. The
// lock-free fast path is a single atomic load; the slow path sleeps on
// bandCond, woken by band completions and aborts.
func (nr *Renderer) waitBand(q int) {
	if nr.bandDone[q].Load() {
		return
	}
	nr.bmu.Lock()
	for !nr.bandDone[q].Load() && !nr.abortFlag.Load() {
		nr.bandCond.Wait()
	}
	nr.bmu.Unlock()
}

// renderWorker is one processor's share of a frame: clear a stripe of the
// intermediate image, composite own-band chunks then stolen chunks, and
// warp the owned tasks as their band dependencies complete. It polls the
// shared abort flag at scanline granularity throughout, so a cancelled or
// failed frame frees the worker within one scanline of work.
func (nr *Renderer) renderWorker(p int, st *workerRec) {
	fr := &nr.fr
	procs := len(nr.start)
	sr := nr.Spans
	fi := nr.Faults
	ctx := nr.traceCtx
	// Each timed site reads the clock once and records one span ending
	// there; the next span starts where it ended.
	var t0 time.Time
	if sr != nil {
		t0 = time.Now()
	}

	// Parallel clear: each worker wipes one horizontal stripe of the
	// (reused) intermediate image, then all workers rendezvous so no one
	// composites into rows another worker has yet to clear.
	if fi != nil {
		fi.Visit("clear", p, -1)
	}
	reg := rtrace.StartRegion(ctx, "clear")
	nr.fr.M.ClearRows(p*fr.M.H/procs, (p+1)*fr.M.H/procs)
	reg.End()
	if sr != nil {
		now := time.Now()
		sr.Record(p, "clear", telemetry.CatBusy, t0, now.Sub(t0))
		t0 = now
	}
	nr.clearWG.Done()
	st.cleared = true
	nr.clearWG.Wait()
	if sr != nil {
		now := time.Now()
		sr.Record(p, "clear-rendezvous", telemetry.CatSync, t0, now.Sub(t0))
		t0 = now
	}
	if nr.abortFlag.Load() {
		return
	}

	ps := &nr.res.PerProc[p]
	cc, _ := nr.ctxPool.Get().(*composite.Ctx)
	cc = fr.BindCompositeCtx(cc)

	st.phase = "composite"
	reg = rtrace.StartRegion(ctx, "composite-own")
	for !nr.abortFlag.Load() {
		nr.bmu.Lock()
		c, ok := nr.plan.Bands.TakeOwn(p)
		nr.bmu.Unlock()
		if !ok {
			break
		}
		st.band = p
		if fi != nil {
			fi.Visit("composite", p, p)
		}
		ps.Chunks++
		nr.runChunk(cc, ps, p, c, p)
	}
	reg.End()
	if sr != nil {
		now := time.Now()
		sr.Record(p, "composite-own", telemetry.CatBusy, t0, now.Sub(t0))
		t0 = now
	}
	st.phase = "steal"
	reg = rtrace.StartRegion(ctx, "composite-steal")
	for !nr.abortFlag.Load() {
		nr.bmu.Lock()
		c, band, ok := nr.plan.Bands.TakeSteal()
		nr.bmu.Unlock()
		if !ok {
			break
		}
		st.band = band
		if fi != nil {
			fi.Visit("steal", p, band)
		}
		ps.Chunks++
		ps.Steals++
		nr.runChunk(cc, ps, p, c, band)
	}
	reg.End()
	if sr != nil {
		now := time.Now()
		sr.Record(p, "composite-steal", telemetry.CatBusy, t0, now.Sub(t0))
		t0 = now
	}
	nr.ctxPool.Put(cc)
	st.band = -1

	// Warp this processor's tasks; each waits only on the bands its
	// bilinear reads can touch — no global barrier (section 5.5.2).
	// Interior tasks need only the own band; boundary slivers also need
	// the adjacent band.
	wc := warp.NewCtx(&fr.F, fr.M, fr.Out)
	for _, tk := range nr.plan.Tasks {
		if tk.Owner != p {
			continue
		}
		if nr.abortFlag.Load() {
			return
		}
		st.phase, st.band = "band-wait", tk.NeedLo
		if fi != nil {
			fi.Visit("band-wait", p, tk.NeedLo)
		}
		reg = rtrace.StartRegion(ctx, "band-wait")
		for q := tk.NeedLo; q <= tk.NeedHi; q++ {
			nr.waitBand(q)
		}
		reg.End()
		if sr != nil {
			now := time.Now()
			sr.Record(p, "band-wait", telemetry.CatSync, t0, now.Sub(t0))
			t0 = now
		}
		if nr.abortFlag.Load() {
			return // bands may be incomplete after an abort: do not warp them
		}
		st.phase = "warp"
		if fi != nil {
			fi.Visit("warp", p, tk.NeedLo)
		}
		reg = rtrace.StartRegion(ctx, "warp")
		for y := 0; y < fr.Out.H; y++ {
			if nr.abortFlag.Load() {
				reg.End()
				return
			}
			if x0, x1, ok := wc.RowSpan(y, tk.Band); ok {
				wc.WarpSpan(y, x0, x1, &ps.Warp)
			}
		}
		reg.End()
		if sr != nil {
			now := time.Now()
			sr.Record(p, "warp", telemetry.CatBusy, t0, now.Sub(t0))
			t0 = now
		}
	}
}

// runChunk composites one chunk of rows belonging to band, recording the
// per-scanline profile on profiling frames and signalling band completion.
// The abort flag is polled once per scanline — the one predictable load
// the cancellation design budgets for — and an aborted chunk leaves its
// band incomplete rather than mis-reporting rows it never composited.
func (nr *Renderer) runChunk(cc *composite.Ctx, ps *ProcStats, p int, c par.Chunk, band int) {
	fi := nr.Faults
	pl := &nr.plan
	for row := c.Lo; row < c.Hi; row++ {
		if nr.abortFlag.Load() {
			return
		}
		if fi != nil {
			fi.Visit("scanline", p, band)
		}
		before := ps.Composite.Samples
		cycles := cc.Scanline(row, &ps.Composite)
		if pl.Profiling {
			ps.Profiled += pl.Record(row, cycles, ps.Composite.Samples != before)
		}
	}
	nr.bmu.Lock()
	if nr.plan.Bands.MarkDone(band, c.Hi-c.Lo) {
		nr.bandDone[band].Store(true)
		nr.bandCond.Broadcast()
	}
	nr.bmu.Unlock()
}

// Profile returns the current per-scanline cost profile (nil before the
// first profiled frame). The returned slice is reused as scratch by later
// profiled frames; callers must not modify or retain it.
func (nr *Renderer) Profile() []int64 { return nr.plan.Profile() }
