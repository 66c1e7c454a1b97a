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
	"sync"

	"shearwarp/internal/par"
	"shearwarp/internal/render"
	"shearwarp/internal/warp"
)

// Config tunes the old parallel algorithm.
type Config struct {
	Procs int // number of workers; 0 means 1
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

// Render renders one frame with the old parallel algorithm using native
// goroutines. The output image is bit-identical to the serial renderer's.
// Render is the uncancellable entry point: it runs under
// context.Background and re-panics a *render.FrameError if a worker
// panicked. Services use RenderCtx.
func Render(r *render.Renderer, yaw, pitch float64, cfg Config) *render.Result {
	res, err := RenderCtx(context.Background(), r, yaw, pitch, cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// RenderCtx is Render with cooperative cancellation and panic isolation
// (see render.Lifecycle). Workers poll the abort flag once per scanline
// (compositing) or tile (warping). An aborting worker drains to the
// inter-phase barrier instead of returning, and a panicking worker's
// recovery arrives there on its behalf if it had not yet, so the barrier
// count always balances. On error the returned Result is nil.
func RenderCtx(ctx context.Context, r *render.Renderer, yaw, pitch float64, cfg Config) (*render.Result, error) {
	lc := new(render.Lifecycle)
	if err := lc.Begin(ctx, r); err != nil {
		return nil, err
	}
	var fr *render.Frame
	var res *render.Result
	if lc.Setup(func() { fr = r.Setup(yaw, pitch) }) {
		res = run(lc, fr, render.Workers(cfg.Procs))
	}
	if err := lc.End(ctx); err != nil {
		return nil, err
	}
	return res, nil
}

// run is the old algorithm's schedule for one frame on procs workers.
func run(lc *render.Lifecycle, fr *render.Frame, procs int) *render.Result {
	res := &render.Result{Out: fr.Out, PerProc: make([]render.ProcStats, procs)}
	chunk := DefaultChunkSize(fr.M.H, procs)
	queue := par.NewInterleaved(0, fr.M.H, chunk, procs)
	var qmu sync.Mutex
	barrier := par.NewBarrier(procs)
	tiles := par.TileGrid(nil, fr.Out.W, fr.Out.H, TileSize)
	lc.OnPanic = func(ph render.Phase) {
		if ph != render.PhaseWarp {
			barrier.Wait()
		}
	}

	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			w := lc.Worker(p, render.PhaseComposite)
			defer w.Recover()
			ps := &res.PerProc[p]

			// Compositing: own chunks, then stolen ones. The queue hands
			// out every own chunk before the first stolen one, so the own
			// span ends when the first steal begins and one steal span
			// covers the rest. A chunk's band is its owner.
			cc := fr.NewCompositeCtx()
		compositing:
			for !lc.Aborted.Load() {
				qmu.Lock()
				c, stolen, ok := queue.Next(p)
				qmu.Unlock()
				if !ok {
					break
				}
				if stolen && w.Phase() == render.PhaseComposite {
					w.Enter(render.PhaseSteal)
				}
				w.Visit(c.Lo / chunk % procs)
				ps.Chunks++
				if stolen {
					ps.Steals++
				}
				for row := c.Lo; row < c.Hi; row++ {
					if lc.Aborted.Load() {
						break compositing
					}
					w.Scanline()
					cc.Scanline(row, &ps.Composite)
				}
			}

			w.Mark(render.PhaseBarrier, -1)
			barrier.Wait()
			w.Enter(render.PhaseWarp)
			if lc.Aborted.Load() {
				return
			}

			// Warp: round-robin tiles, no stealing.
			wc := warp.NewCtx(&fr.F, fr.M, fr.Out)
			for t := p; t < len(tiles); t += procs {
				if lc.Aborted.Load() {
					break
				}
				w.Visit(t)
				tl := tiles[t]
				wc.WarpTile(tl[0], tl[1], tl[2], tl[3], &ps.Warp)
				ps.Tiles++
			}
			w.End()
		}(p)
	}
	wg.Wait()
	return res
}
