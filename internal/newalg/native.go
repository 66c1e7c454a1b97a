package newalg

import (
	"context"
	"sync"
	"sync/atomic"

	"shearwarp/internal/composite"
	"shearwarp/internal/par"
	"shearwarp/internal/render"
	"shearwarp/internal/warp"
)

// Config tunes the new parallel algorithm.
type Config struct {
	Procs         int  // number of workers; 0 means 1
	AlwaysProfile bool // profile every frame (ablation)
}

// Result is a rendered frame plus its per-processor accounting and the
// schedule it ran. The result (including Out and PerProc) points into the
// renderer's reusable per-frame storage: it is valid until the next
// RenderFrame call on the same renderer.
type Result struct {
	render.Result
	Boundaries []int // the partition used (len Procs+1)
	Profiled   bool  // whether this frame collected a profile
	Region     Region
}

// Renderer carries the cross-frame state of the new algorithm: the
// schedule planner, which holds the last collected per-scanline profile and
// the viewpoint it was collected at, plus the reusable per-frame resources
// (images, contexts, worker pool, failure domain) that make the
// steady-state frame loop allocation free.
type Renderer struct {
	R   *render.Renderer
	Cfg Config

	// Reusable per-frame state. Workers read the per-frame fields after
	// receiving a start token (the channel send publishes them) and the
	// main goroutine reads worker results after frameWG.Wait.
	lc       render.Lifecycle
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
}

// NewRenderer wraps a render.Renderer with the new algorithm's state.
func NewRenderer(r *render.Renderer, cfg Config) *Renderer {
	cfg.Procs = render.Workers(cfg.Procs)
	nr := &Renderer{R: r, Cfg: cfg, plan: NewPlanner(cfg, 0, 0, 0)}
	nr.bandCond = sync.NewCond(&nr.bmu)
	// An abort wakes every band waiter. The lifecycle raises the flag
	// before this broadcast, so a waiter cannot recheck its predicate,
	// miss the flag, and sleep through the wakeup.
	nr.lc.OnAbort = func() {
		nr.bmu.Lock()
		nr.bandCond.Broadcast()
		nr.bmu.Unlock()
	}
	// A worker that dies before the clear rendezvous still arrives there,
	// so its peers are never stranded. Bands it had claimed stay
	// incomplete; their waiters are released by the abort broadcast.
	nr.lc.OnPanic = func(ph render.Phase) {
		if ph == render.PhaseClear {
			nr.clearWG.Done()
		}
	}
	return nr
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
// isolation (see render.Lifecycle). Workers poll the abort flag once per
// scanline, and a worker waiting on a band is woken by the abort. After a
// failed or cancelled frame nothing is poisoned: the next frame on this
// renderer renders byte-identically to an undisturbed one. On error the
// returned Result is nil.
func (nr *Renderer) RenderFrameCtx(ctx context.Context, yaw, pitch float64) (*Result, error) {
	if err := nr.lc.Begin(ctx, nr.R); err != nil {
		return nil, err
	}
	if nr.lc.Setup(func() { nr.setup(yaw, pitch) }) {
		procs := nr.Cfg.Procs
		nr.ensureWorkers(procs)
		nr.clearWG.Add(procs)
		nr.frameWG.Add(procs)
		for p := 0; p < procs; p++ {
			nr.start[p] <- struct{}{}
		}
		nr.frameWG.Wait()
	}
	// A failed or cancelled frame is discarded; its partition state never
	// changes output.
	if err := nr.lc.End(ctx); err != nil {
		return nil, err
	}
	nr.plan.Commit()
	return &nr.res, nil
}

// setup is the frame's setup: factorization, image reuse, and the
// schedule (partition, band queue, warp tasks).
func (nr *Renderer) setup(yaw, pitch float64) {
	procs := nr.Cfg.Procs
	fr := &nr.fr
	nr.R.SetupInto(fr, yaw, pitch)

	res := &nr.res
	res.Out = fr.Out
	if cap(res.PerProc) >= procs {
		res.PerProc = res.PerProc[:procs]
		clear(res.PerProc)
	} else {
		res.PerProc = make([]render.ProcStats, procs)
	}

	pl := &nr.plan
	pl.Plan(fr, yaw, pitch)
	res.Profiled = pl.Profiling
	res.Boundaries = pl.Boundaries
	res.Region = pl.Region

	// Per-band completion flags replace the global barrier: a band's warp
	// waiters block on bandCond until its flag is set (or the frame
	// aborts). Bands that start empty are complete immediately.
	if len(nr.bandDone) != procs {
		nr.bandDone = make([]atomic.Bool, procs)
	}
	for p := 0; p < procs; p++ {
		nr.bandDone[p].Store(pl.Bands.Complete(p))
	}
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
	w := nr.lc.Worker(p, render.PhaseClear)
	defer w.Recover()
	nr.renderWorker(p, &w)
}

// waitBand blocks until band q completes or the frame aborts. The
// lock-free fast path is a single atomic load; the slow path sleeps on
// bandCond, woken by band completions and aborts.
func (nr *Renderer) waitBand(q int) {
	if nr.bandDone[q].Load() {
		return
	}
	nr.bmu.Lock()
	for !nr.bandDone[q].Load() && !nr.lc.Aborted.Load() {
		nr.bandCond.Wait()
	}
	nr.bmu.Unlock()
}

// renderWorker is one processor's share of a frame: clear a stripe of the
// intermediate image, composite own-band chunks then stolen chunks, and
// warp the owned tasks as their band dependencies complete. It polls the
// abort flag at scanline granularity throughout, so a cancelled or failed
// frame frees the worker within one scanline of work.
func (nr *Renderer) renderWorker(p int, w *render.Worker) {
	fr := &nr.fr
	procs := len(nr.start)

	// Parallel clear: each worker wipes one horizontal stripe of the
	// (reused) intermediate image, then all workers rendezvous so no one
	// composites into rows another worker has yet to clear.
	w.Visit(-1)
	fr.M.ClearRows(p*fr.M.H/procs, (p+1)*fr.M.H/procs)
	w.Enter(render.PhaseClearWait)
	nr.clearWG.Done()
	nr.clearWG.Wait()
	w.Enter(render.PhaseComposite)
	if nr.lc.Aborted.Load() {
		return
	}

	ps := &nr.res.PerProc[p]
	cc, _ := nr.ctxPool.Get().(*composite.Ctx)
	cc = fr.BindCompositeCtx(cc)
	for !nr.lc.Aborted.Load() {
		nr.bmu.Lock()
		c, ok := nr.plan.Bands.TakeOwn(p)
		nr.bmu.Unlock()
		if !ok {
			break
		}
		w.Visit(p)
		ps.Chunks++
		nr.runChunk(cc, ps, w, c, p)
	}
	w.Enter(render.PhaseSteal)
	for !nr.lc.Aborted.Load() {
		nr.bmu.Lock()
		c, band, ok := nr.plan.Bands.TakeSteal()
		nr.bmu.Unlock()
		if !ok {
			break
		}
		w.Visit(band)
		ps.Chunks++
		ps.Steals++
		nr.runChunk(cc, ps, w, c, band)
	}
	w.Enter(render.PhaseBandWait)
	nr.ctxPool.Put(cc)

	// Warp this processor's tasks; each waits only on the bands its
	// bilinear reads can touch — no global barrier (section 5.5.2).
	// Interior tasks need only the own band; boundary slivers also need
	// the adjacent band.
	wc := warp.NewCtx(&fr.F, fr.M, fr.Out)
	for _, tk := range nr.plan.Tasks {
		if tk.Owner != p {
			continue
		}
		if nr.lc.Aborted.Load() {
			return
		}
		w.Visit(tk.NeedLo)
		for q := tk.NeedLo; q <= tk.NeedHi; q++ {
			nr.waitBand(q)
		}
		w.Enter(render.PhaseWarp)
		if nr.lc.Aborted.Load() {
			return // bands may be incomplete after an abort: do not warp them
		}
		w.Visit(tk.NeedLo)
		for y := 0; y < fr.Out.H; y++ {
			if nr.lc.Aborted.Load() {
				return
			}
			if x0, x1, ok := wc.RowSpan(y, tk.Band); ok {
				wc.WarpSpan(y, x0, x1, &ps.Warp)
			}
		}
		w.Enter(render.PhaseBandWait)
	}
}

// runChunk composites one chunk of rows belonging to band, recording the
// per-scanline profile on profiling frames and signalling band completion.
// The abort flag is polled once per scanline — the one predictable load
// the cancellation design budgets for — and an aborted chunk leaves its
// band incomplete rather than mis-reporting rows it never composited.
func (nr *Renderer) runChunk(cc *composite.Ctx, ps *render.ProcStats, w *render.Worker, c par.Chunk, band int) {
	pl := &nr.plan
	for row := c.Lo; row < c.Hi; row++ {
		if nr.lc.Aborted.Load() {
			return
		}
		w.Scanline()
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
