// Package render ties the shear-warp pipeline together: classification,
// per-axis run-length encodings (cached, since they are view-independent),
// factorization, compositing and warping. It provides the serial renderer
// — the baseline all parallel algorithms must match bit-for-bit — and the
// per-frame setup shared by the parallel implementations.
package render

import (
	"context"
	"math"
	rtrace "runtime/trace"
	"time"

	"shearwarp/internal/classify"
	"shearwarp/internal/composite"
	"shearwarp/internal/faultinject"
	"shearwarp/internal/img"
	"shearwarp/internal/rendermode"
	"shearwarp/internal/rle"
	"shearwarp/internal/telemetry"
	"shearwarp/internal/vol"
	"shearwarp/internal/warp"
	"shearwarp/internal/xform"
)

// Options configures a Renderer.
type Options struct {
	Transfer   classify.TransferFunc // nil = MRI transfer
	Light      classify.Light        // zero = default light
	MinOpacity uint8                 // 0 = default threshold
	// OpacityCorrection enables Lacroute's view-dependent correction of
	// stored opacities for the shear's per-slice sample spacing.
	OpacityCorrection bool
	// PreprocProcs parallelizes classification and run-length encoding
	// (the renderer's view-independent preprocessing) with this many
	// goroutines; 0 or 1 keeps them serial. Outputs are bit-identical.
	PreprocProcs int
	// Mode selects the render mode every frame of this renderer runs
	// with: composite (the zero value), MIP, or isosurface. For the
	// isosurface mode the caller supplies the thresholding transfer
	// function (classify.IsoTransfer) in Transfer — classification is
	// where that mode lives; Mode itself only steers the per-scanline
	// compositing kernel.
	Mode rendermode.Mode
}

// Renderer owns a classified volume and its lazily-built per-axis RLE
// encodings. Like every renderer in this repository it is single-frame-
// at-a-time: the classified volume and encodings are immutable and may be
// shared (see NewShared), but one Renderer must not run two frames
// concurrently.
type Renderer struct {
	Vol               *vol.Volume
	Classified        *classify.Classified
	OpacityCorrection bool
	// Mode is the render mode every frame runs with (see Options.Mode).
	Mode         rendermode.Mode
	preprocProcs int
	enc          [3]*rle.Volume
	// encodeFn, when set, supplies per-axis encodings from an external
	// source (the render service's LRU cache) instead of encoding
	// privately. The returned encodings must be immutable and equivalent
	// to rle.Encode over Classified.
	encodeFn func(xform.Axis) *rle.Volume
	// Faults, when non-nil, injects deterministic faults into the serial
	// render path (internal/faultinject). Nil-checked everywhere.
	Faults *faultinject.Injector
	// Spans, when non-nil, receives timestamped spans for the serial
	// render path's phases (setup, composite, warp) on worker lane 0.
	// Nil-checked at every site; swap only between frames.
	Spans *telemetry.FrameSpans
}

// New classifies the volume and returns a renderer.
func New(v *vol.Volume, opt Options) *Renderer {
	copt := classify.Options{
		Transfer: opt.Transfer, Light: opt.Light, MinOpacity: opt.MinOpacity,
	}
	return &Renderer{
		Vol:               v,
		OpacityCorrection: opt.OpacityCorrection,
		Mode:              opt.Mode,
		preprocProcs:      opt.PreprocProcs,
		Classified:        classify.ClassifyParallel(v, copt, opt.PreprocProcs),
	}
}

// NewShared builds a renderer around preprocessing owned by someone else:
// an already-classified volume and an encoding source consulted once per
// principal axis. Classification and encoding dominate setup cost and are
// view-independent, so a render service shares them across a whole pool
// of renderers; the shared products are immutable, which keeps the
// sharing race-free while each pooled renderer runs frames independently.
// opt.Transfer/Light/MinOpacity are ignored — they are already baked into
// the classified volume.
func NewShared(v *vol.Volume, c *classify.Classified, encode func(xform.Axis) *rle.Volume, opt Options) *Renderer {
	return &Renderer{
		Vol:               v,
		Classified:        c,
		OpacityCorrection: opt.OpacityCorrection,
		Mode:              opt.Mode,
		preprocProcs:      opt.PreprocProcs,
		encodeFn:          encode,
	}
}

// Encoding returns the RLE encoding for a principal axis, building it on
// first use (or fetching it from the shared source for NewShared
// renderers).
func (r *Renderer) Encoding(axis xform.Axis) *rle.Volume {
	if r.enc[axis] == nil {
		if r.encodeFn != nil {
			r.enc[axis] = r.encodeFn(axis)
		} else {
			r.enc[axis] = rle.EncodeParallel(r.Classified, axis, r.preprocProcs)
		}
	}
	return r.enc[axis]
}

// Frame holds the per-frame state shared by serial and parallel renderers.
type Frame struct {
	F   xform.Factorization
	RV  *rle.Volume
	M   *img.Intermediate
	Out *img.Final
	// CorrectOpacity tells compositing contexts to enable the per-frame
	// opacity-correction table.
	CorrectOpacity bool
	// Mode is the render mode the frame's compositing contexts run with.
	Mode rendermode.Mode
}

// NewCompositeCtx builds a compositing context for this frame, applying
// the frame's opacity-correction setting; all renderers (serial, parallel,
// simulated) must create their contexts through it so images stay
// bit-identical across algorithms.
func (fr *Frame) NewCompositeCtx() *composite.Ctx {
	cc := composite.NewCtx(&fr.F, fr.RV, fr.M)
	cc.Mode = fr.Mode
	if fr.CorrectOpacity {
		cc.EnableOpacityCorrection()
	}
	return cc
}

// BindCompositeCtx rebinds a pooled compositing context to this frame, or
// builds a fresh one when cc is nil; like NewCompositeCtx it applies the
// frame's opacity-correction setting so images stay bit-identical.
func (fr *Frame) BindCompositeCtx(cc *composite.Ctx) *composite.Ctx {
	if cc == nil {
		return fr.NewCompositeCtx()
	}
	cc.Bind(&fr.F, fr.RV, fr.M)
	cc.Mode = fr.Mode
	if fr.CorrectOpacity {
		cc.EnableOpacityCorrection()
	}
	return cc
}

// NewWarpCtx ignores its argument and exists only so the frozen
// bench/layers.go compiles; it goes in the next [benchmark] PR.
func (fr *Frame) NewWarpCtx(*warp.Scratch) warp.Ctx {
	return *warp.NewCtx(&fr.F, fr.M, fr.Out)
}

// Setup factorizes the view and allocates the frame's images.
func (r *Renderer) Setup(yaw, pitch float64) *Frame {
	view := xform.ViewMatrix(r.Vol.Nx, r.Vol.Ny, r.Vol.Nz, yaw, pitch)
	f := xform.Factorize(r.Vol.Nx, r.Vol.Ny, r.Vol.Nz, view)
	return &Frame{
		F:              f,
		RV:             r.Encoding(f.Axis),
		M:              img.NewIntermediate(f.IntW, f.IntH),
		Out:            img.NewFinal(f.FinalW, f.FinalH),
		CorrectOpacity: r.OpacityCorrection,
		Mode:           r.Mode,
	}
}

// SetupInto factorizes the view into an existing frame, reusing its images
// (resized without clearing — the caller owns the clear). Unlike Setup,
// which always allocates fresh zeroed images, this is the allocation-free
// path for renderers that own a persistent Frame: the first call allocates
// both images at the largest size any viewpoint of this volume can need
// (see imageBounds), so no later frame grows them. Callers that hand out
// the final image must not reuse the frame afterwards.
func (r *Renderer) SetupInto(fr *Frame, yaw, pitch float64) {
	view := xform.ViewMatrix(r.Vol.Nx, r.Vol.Ny, r.Vol.Nz, yaw, pitch)
	fr.F = xform.Factorize(r.Vol.Nx, r.Vol.Ny, r.Vol.Nz, view)
	fr.RV = r.Encoding(fr.F.Axis)
	if fr.M == nil {
		inter, final := imageBounds(r.Vol.Nx, r.Vol.Ny, r.Vol.Nz)
		fr.M, fr.Out = new(img.Intermediate), new(img.Final)
		fr.M.Reserve(inter)
		fr.Out.Reserve(final)
	}
	fr.M.Resize(fr.F.IntW, fr.F.IntH)
	fr.Out.Resize(fr.F.FinalW, fr.F.FinalH)
	fr.CorrectOpacity = r.OpacityCorrection
	fr.Mode = r.Mode
}

// imageBounds returns pixel counts no intermediate and no final image of an
// nx x ny x nz volume exceeds, whatever the viewpoint. The shear
// coefficients are at most 1 in magnitude on the principal axis, so
// Factorize's IntW = ni + ceil(|Si|(nk-1)) + 1 is at most ni+nk, and IntH at
// most nj+nk. The warp is two rows of a rotation applied to that rectangle,
// so neither side of its bounding box exceeds the rectangle's diagonal.
func imageBounds(nx, ny, nz int) (inter, final int) {
	for _, axis := range []xform.Axis{xform.AxisX, xform.AxisY, xform.AxisZ} {
		ni, nj, nk := xform.PermutedDims(axis, nx, ny, nz)
		w, h := ni+nk, nj+nk
		side := int(math.Ceil(math.Hypot(float64(w-1), float64(h-1)))) + 1
		inter = max(inter, w*h)
		final = max(final, side*side)
	}
	return inter, final
}

// FrameStats reports the modeled work of one rendered frame.
type FrameStats struct {
	Composite composite.Counters
	Warp      warp.Counters
}

// TotalCycles is the modeled serial busy time of the frame.
func (s *FrameStats) TotalCycles() int64 { return s.Composite.Cycles + s.Warp.Cycles }

// RenderSerial renders one frame with the sequential algorithm: composite
// every intermediate scanline top to bottom, then warp the whole final
// image. It re-panics a *FrameError if the frame panicked; services use
// RenderSerialCtx.
func (r *Renderer) RenderSerial(yaw, pitch float64) (*img.Final, FrameStats) {
	out, st, err := r.RenderSerialCtx(context.Background(), yaw, pitch)
	if err != nil {
		panic(err)
	}
	return out, st
}

// RenderSerialCtx is RenderSerial with cooperative cancellation and
// panic containment: the context is polled once per composited scanline
// (and once before the warp), and a panic anywhere in the frame —
// factorization of a degenerate view, a compositing invariant, an
// injected fault — is recovered into a *FrameError. On error the returned
// image is nil.
func (r *Renderer) RenderSerialCtx(ctx context.Context, yaw, pitch float64) (out *img.Final, st FrameStats, err error) {
	if err := ctx.Err(); err != nil {
		return nil, FrameStats{}, err
	}

	phase := "setup"
	defer func() {
		if v := recover(); v != nil {
			out, st, err = nil, FrameStats{}, NewFrameError(0, phase, -1, v)
		}
	}()

	fi := r.Faults
	sr := r.Spans
	fi.Visit("setup", 0, -1)
	// Each timed site reads the clock once: its span ends where the next
	// one starts.
	var t0 time.Time
	if sr != nil {
		t0 = time.Now()
	}
	fr := r.Setup(yaw, pitch)
	if sr != nil {
		now := time.Now()
		sr.Record(-1, "setup", telemetry.CatRequest, t0, now.Sub(t0))
		t0 = now
	}

	tctx := context.Background()
	var task *rtrace.Task
	if rtrace.IsEnabled() {
		tctx, task = rtrace.NewTask(tctx, "shearwarp.frame")
	}
	defer func() {
		if task != nil {
			task.End()
		}
	}()

	phase = "composite"
	cc := fr.NewCompositeCtx()
	reg := rtrace.StartRegion(tctx, "composite")
	for vRow := 0; vRow < fr.M.H; vRow++ {
		if ctx.Err() != nil {
			reg.End()
			return nil, FrameStats{}, ctx.Err()
		}
		if fi != nil {
			fi.Visit("scanline", 0, -1)
		}
		cc.Scanline(vRow, &st.Composite)
	}
	reg.End()
	if sr != nil {
		now := time.Now()
		sr.Record(0, "composite-own", telemetry.CatBusy, t0, now.Sub(t0))
		t0 = now
	}
	if ctx.Err() != nil {
		return nil, FrameStats{}, ctx.Err()
	}
	phase = "warp"
	fi.Visit("warp", 0, -1)
	wc := warp.NewCtx(&fr.F, fr.M, fr.Out)
	reg = rtrace.StartRegion(tctx, "warp")
	wc.WarpTile(0, 0, fr.Out.W, fr.Out.H, &st.Warp)
	reg.End()
	if sr != nil {
		sr.Record(0, "warp", telemetry.CatBusy, t0, time.Since(t0))
	}
	// A cancellation during the warp loses the race against completion;
	// honour the context anyway so a cancelled frame never reports success.
	if err := ctx.Err(); err != nil {
		return nil, FrameStats{}, err
	}
	return fr.Out, st, nil
}

// Rotation returns n (yaw, pitch) viewpoints advancing stepDeg degrees of
// yaw per frame from the given start — the animation pattern the paper
// assumes ("the angle between successive viewpoints is typically small").
func Rotation(n int, startYaw, pitch, stepDeg float64) [][2]float64 {
	const degToRad = 3.14159265358979323846 / 180
	views := make([][2]float64, n)
	for i := range views {
		views[i] = [2]float64{startYaw + float64(i)*stepDeg*degToRad, pitch}
	}
	return views
}
