package newalg

import (
	"bytes"
	"math"
	"testing"

	"shearwarp/internal/img"
	"shearwarp/internal/render"
	"shearwarp/internal/vol"
	"shearwarp/internal/warp"
)

// TestWarpTaskTouchesOnlyAwaitedRows is the deterministic form of the
// composite/warp data race: a warp task starts as soon as compositing bands
// NeedLo..NeedHi are complete, so every intermediate row its bilinear taps
// touch must lie in one of those bands or outside the composited region
// (cleared before the rendezvous, never written again). A zero-weight tap
// changes no pixel, so the test makes touching visible instead: it warps
// each task of each frame's real partition over an image whose forbidden
// rows are NaN, and over one whose forbidden rows are zero. A tap on a
// forbidden row, whatever its weight, turns the pixel into NaN and the two
// outputs differ.
func TestWarpTaskTouchesOnlyAwaitedRows(t *testing.T) {
	r := render.New(vol.MRIBrain(48), render.Options{})
	nr := NewRenderer(r, Config{Procs: 4})
	defer nr.Close()

	// A full rotation in 3-degree steps (the frame-loop guards' sweep),
	// passing through every axis-aligned view, then the aligned views again
	// with the yaw a hair off the axis.
	const deg = math.Pi / 180
	var yaws []float64
	for d := 0; d < 360; d += 3 {
		yaws = append(yaws, float64(d)*deg)
	}
	for _, d := range []float64{0, 90, 180, 270} {
		for _, off := range []float64{-1e-3, -1e-9, 1e-9, 1e-3} {
			yaws = append(yaws, (d+off)*deg)
		}
	}
	nan := float32(math.NaN())
	var nanM, zeroM img.Intermediate
	var nanOut, zeroOut img.Final
	for _, pitch := range []float64{0, 15 * deg} {
		for _, yaw := range yaws {
			res := nr.RenderFrame(yaw, pitch)
			fr := &nr.fr
			bd := res.Boundaries
			lo, hi := bd[0], bd[len(bd)-1]
			for _, tk := range nr.plan.Tasks {
				allowed := func(row int) bool {
					if row < lo || row >= hi {
						return true
					}
					return tk.NeedLo <= tk.NeedHi && row >= bd[tk.NeedLo] && row < bd[tk.NeedHi+1]
				}
				for _, m := range []*img.Intermediate{&nanM, &zeroM} {
					m.Resize(fr.M.W, fr.M.H)
					m.Clear()
				}
				for row := lo; row < hi; row++ {
					fill := float32(1)
					if !allowed(row) {
						fill = nan
					}
					p := nanM.Pix[4*row*nanM.W : 4*(row+1)*nanM.W]
					for i := range p {
						p[i] = fill
					}
					if allowed(row) {
						copy(zeroM.Pix[4*row*zeroM.W:], p)
					}
				}
				warpTask(fr, &nanM, &nanOut, tk)
				warpTask(fr, &zeroM, &zeroOut, tk)
				if !bytes.Equal(nanOut.Pix, zeroOut.Pix) {
					t.Errorf("yaw %.9g° pitch %.3g°: task band [%g,%g) needs bands %d..%d of %v but touches a row outside them",
						yaw/deg, pitch/deg, tk.Band.VLo, tk.Band.VHi, tk.NeedLo, tk.NeedHi, bd)
				}
			}
		}
	}
}

// warpTask warps one task of the frame the way renderWorker does, reading m
// and writing a cleared out.
func warpTask(fr *render.Frame, m *img.Intermediate, out *img.Final, tk warp.Task) {
	out.Resize(fr.Out.W, fr.Out.H)
	out.Clear()
	wc := warp.Ctx{F: &fr.F, M: m, Out: out}
	var cnt warp.Counters
	for y := 0; y < out.H; y++ {
		if x0, x1, ok := wc.RowSpan(y, tk.Band); ok {
			wc.WarpSpan(y, x0, x1, &cnt)
		}
	}
}
