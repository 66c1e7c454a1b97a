// Package oldalg implements the original parallel shear-warp algorithm the
// paper analyzes in section 3 (Lacroute '95 / Singh et al. '94):
//
//   - Compositing: the intermediate-image scanlines are grouped into
//     fixed-size chunks assigned round-robin (interleaved) to processors;
//     idle processors steal remaining chunks. The whole intermediate image
//     is composited "from the very beginning to the end", including empty
//     border scanlines.
//   - A global barrier separates the phases.
//   - Warp: the final image is divided into square tiles assigned
//     round-robin; no stealing.
//
// This file is the native (goroutine) implementation used for correctness
// testing and host benchmarks. The simulator's old algorithm
// (simrun.RunOld) schedules with the same pieces: par.Interleaved sized by
// DefaultChunkSize, and par.TileGrid at TileSize.
package oldalg

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

// Config tunes the old parallel algorithm.
type Config struct {
	Procs int // number of workers; 0 means 1
	// Faults, when non-nil, injects deterministic faults at the worker
	// phase sites (internal/faultinject). Nil-checked everywhere.
	Faults *faultinject.Injector
	// Spans, when non-nil, receives one timestamped span per worker phase
	// (composite own, composite steal, barrier wait, warp) for the
	// service's per-request traces and the Figure 5/6 breakdown
	// (telemetry.Breakdown). Nil-checked at every site, so the default
	// path performs no clock reads.
	Spans *telemetry.FrameSpans
}

// DefaultChunkSize is the scanlines per compositing chunk. It mirrors the
// paper's empirically-tuned task size: small enough for load balance across
// P processors, large enough for spatial locality.
func DefaultChunkSize(height, procs int) int {
	c := height / (procs * 8)
	if c < 1 {
		c = 1
	}
	if c > 16 {
		c = 16
	}
	return c
}

// TileSize is the edge, in pixels, of the square final-image tiles the warp
// phase assigns round-robin.
const TileSize = 32

// ProcStats reports one worker's share of a frame.
type ProcStats struct {
	Composite composite.Counters
	Warp      warp.Counters
	Steals    int // chunks obtained by stealing
	Chunks    int // chunks composited in total
	Tiles     int // warp tiles processed
}

// Result is a rendered frame plus its per-processor accounting.
type Result struct {
	Out     *img.Final
	PerProc []ProcStats
}

// Stats aggregates the per-processor counters.
func (r *Result) Stats() render.FrameStats {
	var st render.FrameStats
	for i := range r.PerProc {
		st.Composite.Add(r.PerProc[i].Composite)
		st.Warp.Add(r.PerProc[i].Warp)
	}
	return st
}

// Render renders one frame with the old parallel algorithm using native
// goroutines. The output image is bit-identical to the serial renderer's.
// Render is the uncancellable entry point: it runs under
// context.Background and re-panics a *render.FrameError if a worker
// panicked. Services use RenderCtx.
func Render(r *render.Renderer, yaw, pitch float64, cfg Config) *Result {
	res, err := RenderCtx(context.Background(), r, yaw, pitch, cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// abortState is the frame's shared cancellation/failure record: flag is
// the cancel flag every worker polls at scanline/tile granularity, err
// holds the first failure.
type abortState struct {
	flag atomic.Bool
	mu   sync.Mutex
	err  error
}

func (a *abortState) abort(err error) {
	a.mu.Lock()
	if a.err == nil {
		a.err = err
	}
	a.mu.Unlock()
	a.flag.Store(true)
}

// setupFrame runs the per-frame setup with panic containment, so a
// degenerate view matrix or injected setup fault converts to a
// *render.FrameError before any worker starts.
func setupFrame(r *render.Renderer, yaw, pitch float64, fi *faultinject.Injector) (fr *render.Frame, err error) {
	defer func() {
		if v := recover(); v != nil {
			fr, err = nil, render.NewFrameError(-1, "setup", -1, v)
		}
	}()
	fi.Visit("setup", -1, -1)
	return r.Setup(yaw, pitch), nil
}

// RenderCtx is Render with cooperative cancellation and panic isolation.
// When ctx is cancelled, every worker observes the shared abort flag
// within one scanline (compositing) or one tile (warping) of work, drains
// through the inter-phase barrier so no peer deadlocks, and the call
// returns ctx's error. A panic in any worker is recovered into a
// *render.FrameError; its deferred recovery arrives at the barrier on the
// dead worker's behalf if it had not yet done so, keeping the barrier
// count intact. On error the returned Result is nil.
func RenderCtx(ctx context.Context, r *render.Renderer, yaw, pitch float64, cfg Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fi := cfg.Faults
	sr := cfg.Spans
	var tSetup time.Time
	if sr != nil {
		tSetup = time.Now()
	}
	fr, err := setupFrame(r, yaw, pitch, fi)
	if err != nil {
		return nil, err
	}
	if sr != nil {
		sr.Record(-1, "setup", telemetry.CatRequest, tSetup, time.Since(tSetup))
	}
	if cfg.Procs < 1 {
		cfg.Procs = 1
	}
	res := &Result{Out: fr.Out, PerProc: make([]ProcStats, cfg.Procs)}

	// One runtime/trace task per frame; worker phase regions attach to it.
	tctx := context.Background()
	var task *rtrace.Task
	if rtrace.IsEnabled() {
		tctx, task = rtrace.NewTask(tctx, "shearwarp.frame")
	}

	queue := par.NewInterleaved(0, fr.M.H, DefaultChunkSize(fr.M.H, cfg.Procs), cfg.Procs)
	var qmu sync.Mutex
	barrier := par.NewBarrier(cfg.Procs)
	tiles := par.TileGrid(nil, fr.Out.W, fr.Out.H, TileSize)

	var ab abortState
	var stopWatch func() bool
	if ctx.Done() != nil {
		stopWatch = context.AfterFunc(ctx, func() {
			ab.abort(ctx.Err())
		})
	}

	var wg sync.WaitGroup
	for p := 0; p < cfg.Procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// The worker's panic domain: phase/band are kept current for
			// the FrameError, and a worker that dies before reaching the
			// inter-phase barrier still arrives there in recovery so its
			// peers (who drain to the barrier on abort) are never stranded.
			phase, band := "composite", -1
			arrivedBarrier := false
			defer func() {
				if v := recover(); v != nil {
					ab.abort(render.NewFrameError(p, phase, band, v))
					if !arrivedBarrier {
						barrier.Wait()
					}
				}
			}()
			ps := &res.PerProc[p]
			// Each timed site reads the clock once and records one span
			// ending there; the next span starts where it ended.
			var t0 time.Time
			if sr != nil {
				t0 = time.Now()
			}

			// Compositing phase: own chunks, then stealing. The queue
			// hands out every own chunk before the first stolen one, so
			// the own span ends when the first steal begins and one
			// steal span covers the rest. The abort flag is polled per
			// scanline; an aborting worker drains to the barrier rather
			// than returning, so the barrier count stays intact.
			stealing := false
			cc := fr.NewCompositeCtx()
			reg := rtrace.StartRegion(tctx, "composite")
		compositing:
			for !ab.flag.Load() {
				qmu.Lock()
				c, stolen, ok := queue.Next(p)
				qmu.Unlock()
				if !ok {
					break
				}
				band = p
				if stolen && !stealing {
					stealing = true
					if sr != nil {
						now := time.Now()
						sr.Record(p, "composite-own", telemetry.CatBusy, t0, now.Sub(t0))
						t0 = now
					}
				}
				if fi != nil {
					if stolen {
						fi.Visit("steal", p, -1)
					} else {
						fi.Visit("composite", p, p)
					}
				}
				ps.Chunks++
				if stolen {
					ps.Steals++
				}
				for row := c.Lo; row < c.Hi; row++ {
					if ab.flag.Load() {
						break compositing
					}
					if fi != nil {
						fi.Visit("scanline", p, -1)
					}
					cc.Scanline(row, &ps.Composite)
				}
			}
			reg.End()
			if sr != nil {
				name := "composite-own"
				if stealing {
					name = "composite-steal"
				}
				now := time.Now()
				sr.Record(p, name, telemetry.CatBusy, t0, now.Sub(t0))
				t0 = now
			}

			// Global barrier between compositing and warping.
			phase, band = "barrier", -1
			if fi != nil {
				fi.Visit("barrier", p, -1)
			}
			reg = rtrace.StartRegion(tctx, "barrier-wait")
			barrier.Wait()
			arrivedBarrier = true
			reg.End()
			if sr != nil {
				now := time.Now()
				sr.Record(p, "barrier-wait", telemetry.CatSync, t0, now.Sub(t0))
				t0 = now
			}
			if ab.flag.Load() {
				return
			}

			// Warp phase: round-robin tiles, no stealing. The abort flag
			// is polled per tile.
			phase = "warp"
			reg = rtrace.StartRegion(tctx, "warp")
			wc := warp.NewCtx(&fr.F, fr.M, fr.Out)
			for t := p; t < len(tiles); t += cfg.Procs {
				if ab.flag.Load() {
					break
				}
				if fi != nil {
					fi.Visit("warp", p, t)
				}
				tl := tiles[t]
				wc.WarpTile(tl[0], tl[1], tl[2], tl[3], &ps.Warp)
				ps.Tiles++
			}
			reg.End()
			if sr != nil {
				sr.Record(p, "warp", telemetry.CatBusy, t0, time.Since(t0))
			}
		}(p)
	}
	wg.Wait()
	if task != nil {
		task.End()
	}
	if stopWatch != nil {
		stopWatch()
	}

	if ab.flag.Load() {
		ab.mu.Lock()
		err := ab.err
		ab.mu.Unlock()
		if err == nil {
			err = ctx.Err()
		}
		if err == nil {
			err = context.Canceled
		}
		return nil, err
	}
	// A cancellation landing in the final warp tiles can lose the race
	// against frame completion; honour the context anyway so a cancelled
	// frame never reports success.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}
