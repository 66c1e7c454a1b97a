// Package shearwarp is a parallel volume renderer based on the shear-warp
// factorization, reproducing Jiang & Singh, "Improving Parallel Shear-Warp
// Volume Rendering on Shared Address Space Multiprocessors" (PPOPP 1997).
//
// The package renders 3-D scalar volumes by factoring the viewing
// transformation into a shear (composited over a run-length-encoded volume
// with early ray termination) and a 2-D warp. Three renderers are
// provided:
//
//   - Serial: the sequential shear warper (Lacroute's algorithm).
//   - OldParallel: the original parallel algorithm — interleaved chunks of
//     intermediate-image scanlines with task stealing, a barrier, and
//     round-robin final-image tiles.
//   - NewParallel: the paper's algorithm — contiguous, profile-balanced
//     partitions of the intermediate image used identically by both
//     phases, with chunked stealing and no inter-phase barrier.
//
// All three produce bit-identical images. A ray-casting baseline, a
// multiprocessor cache/directory simulator, an SVM (shared virtual memory)
// simulator, and a harness regenerating every figure of the paper's
// evaluation live under internal/ and are reachable through RunFigure.
package shearwarp

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"shearwarp/internal/classify"
	"shearwarp/internal/composite"
	"shearwarp/internal/experiments"
	"shearwarp/internal/faultinject"
	"shearwarp/internal/img"
	"shearwarp/internal/newalg"
	"shearwarp/internal/oldalg"
	"shearwarp/internal/perf"
	"shearwarp/internal/raycast"
	"shearwarp/internal/render"
	"shearwarp/internal/rendermode"
	"shearwarp/internal/telemetry"
	"shearwarp/internal/vol"
	"shearwarp/internal/warp"
	"shearwarp/internal/xform"
)

// Algorithm selects a rendering strategy.
type Algorithm int

// Rendering strategies.
const (
	// AlgorithmAuto, the zero value, leaves the choice to whoever consumes
	// the Config: a Renderer built from it renders with Serial, the render
	// service (internal/server) serves with NewParallel.
	AlgorithmAuto Algorithm = iota
	Serial
	OldParallel
	NewParallel
	RayCast // the image-order baseline, for comparison
)

func (a Algorithm) String() string {
	switch a {
	case AlgorithmAuto:
		return "auto"
	case Serial:
		return "serial"
	case OldParallel:
		return "old"
	case NewParallel:
		return "new"
	case RayCast:
		return "raycast"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm converts a name ("serial", "old", "new", "raycast").
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "serial":
		return Serial, nil
	case "old":
		return OldParallel, nil
	case "new":
		return NewParallel, nil
	case "raycast":
		return RayCast, nil
	}
	return 0, fmt.Errorf("shearwarp: unknown algorithm %q", s)
}

// Mode selects a render mode. The constants mirror internal/rendermode
// one to one (the conversions in this file rely on the shared numbering).
type Mode int

// Render modes.
const (
	// ModeComposite is front-to-back alpha compositing with early ray
	// termination — the paper's workload and the default.
	ModeComposite Mode = iota
	// ModeMIP is maximum intensity projection: each ray keeps the
	// per-channel maximum of its premultiplied samples. Max never
	// saturates a pixel, so early ray termination is structurally off.
	ModeMIP
	// ModeIsosurface is surface display: classification thresholds the
	// raw densities (Config.IsoThreshold) into a binary-opaque,
	// gradient-shaded surface, which the standard over-blend then renders
	// as a first-opaque-surface projection.
	ModeIsosurface
)

func (m Mode) String() string { return rendermode.Mode(m).String() }

// UnknownModeError reports a mode name that ParseMode rejected.
type UnknownModeError struct {
	Value string
}

func (e *UnknownModeError) Error() string {
	return fmt.Sprintf("shearwarp: unknown mode %q (valid: composite, mip, iso)", e.Value)
}

// ParseMode converts a mode name ("composite", "mip", "iso"; "" means
// composite). Unknown names return a *UnknownModeError.
func ParseMode(s string) (Mode, error) {
	m, err := rendermode.Parse(s)
	if err != nil {
		return 0, &UnknownModeError{Value: s}
	}
	return Mode(m), nil
}

// Transfer selects a classification transfer function.
type Transfer int

// Built-in transfer functions.
const (
	TransferMRI Transfer = iota // soft-tissue classification
	TransferCT                  // bone-isolating classification
)

func (t Transfer) String() string {
	switch t {
	case TransferMRI:
		return "mri"
	case TransferCT:
		return "ct"
	}
	return fmt.Sprintf("Transfer(%d)", int(t))
}

// ParseTransfer converts a transfer-function name ("mri", "ct").
func ParseTransfer(s string) (Transfer, error) {
	switch s {
	case "mri", "":
		return TransferMRI, nil
	case "ct":
		return TransferCT, nil
	}
	return 0, fmt.Errorf("shearwarp: unknown transfer function %q", s)
}

// Config configures a Renderer.
type Config struct {
	Algorithm Algorithm // AlgorithmAuto (the zero value) renders with Serial
	Procs     int       // workers for the parallel algorithms (default 1)
	Transfer  Transfer  // classification preset
	// Mode selects the render mode (composite, MIP, isosurface); see the
	// Mode constants.
	Mode Mode
	// IsoThreshold is the density threshold of ModeIsosurface: voxels at
	// or above it form the surface. 0 selects the default
	// (classify.DefaultIsoThreshold, 128). Other modes ignore it.
	IsoThreshold uint8
	// OpacityCorrection enables the view-dependent correction of stored
	// opacities for the shear's per-slice sample spacing (Lacroute). The
	// ray-casting baseline samples at unit spacing and ignores it.
	OpacityCorrection bool
	// CollectStats gives the Serial, OldParallel and NewParallel
	// renderers a span recorder of their own, so each Render exposes a
	// paper-style Figure-5/6 breakdown through LastBreakdown (a recorder
	// attached with SetSpanRecorder does the same). Costs a constant number
	// of clock reads per worker per frame; when false and nothing is
	// attached the renderers take the uninstrumented path (no clock reads,
	// byte-identical output).
	CollectStats bool
	// Faults, when non-nil, injects deterministic faults into the render
	// pipeline (internal/faultinject) for chaos testing. Nil (the
	// default) costs nothing.
	Faults *faultinject.Injector
}

// ValidationError reports a request parameter the renderer rejected
// before (or instead of) rendering: a non-finite angle, or a viewpoint
// whose factorization degenerates. The render service maps it to a 400.
type ValidationError struct {
	Param  string // offending parameter ("yaw", "pitch", "view")
	Reason string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("shearwarp: invalid %s: %s", e.Param, e.Reason)
}

// Renderer renders frames of one volume.
//
// Concurrent-use contract: a Renderer renders one frame at a time — the
// parallelism lives inside each Render call, and the per-frame images,
// profile state and phase breakdown are reused across calls. Callers that
// need overlapping Render calls (a render service) must use distinct
// Renderers; RendererPool manages a fixed set over shared preprocessing,
// and PreparedVolume makes that sharing cheap by classifying and
// run-length-encoding the volume once for the whole pool.
type Renderer struct {
	cfg Config
	r   *render.Renderer
	nr  *newalg.Renderer // cross-frame state for NewParallel
	rc  *raycast.Renderer
	own *telemetry.FrameSpans // the recorder cfg.CollectStats asks for; nil otherwise
	pb  PhaseBreakdown        // storage the last frame's breakdown is derived into
	bd  *PhaseBreakdown       // &pb once a frame has been accounted, nil otherwise
}

// Image is a rendered frame. The parallel algorithms may hand out the
// renderer's own output buffer, reused frame after frame (NewParallel
// does): such an Image is valid until the next Render or RenderCtx call
// on the same Renderer. Read it out (WritePPM, WritePNG, At) before
// rendering again and, with a RendererPool, before Release.
type Image struct{ f *img.Final }

// Width returns the image width in pixels.
func (im *Image) Width() int { return im.f.W }

// Height returns the image height in pixels.
func (im *Image) Height() int { return im.f.H }

// At returns the 8-bit RGB value of pixel (x, y).
func (im *Image) At(x, y int) (r, g, b uint8) { return im.f.AtRGB(x, y) }

// WritePPM writes the image as binary PPM (P6) in a single Write.
func (im *Image) WritePPM(w io.Writer) error { return im.f.WritePPM(w) }

// WritePNG writes the image as an 8-bit RGB PNG in a single Write. The
// bytes are a pure function of the pixels: Up filter on every row, one
// level-1 deflate stream (see internal/img).
func (im *Image) WritePNG(w io.Writer) error { return im.f.WritePNG(w) }

// NonBlackPixels counts pixels with any non-zero channel.
func (im *Image) NonBlackPixels() int { return im.f.NonBlackCount() }

// FrameInfo reports the modeled work of one rendered frame.
type FrameInfo struct {
	Cycles      int64 // modeled instruction cycles (1-CPI cost model)
	Samples     int64 // composited (resampled + blended) samples
	Scanlines   int64 // intermediate scanlines processed
	Steals      int   // task-stealing events (parallel algorithms)
	Profiled    bool  // whether this frame collected a cost profile
	IntW, IntH  int   // intermediate image size
	FinalW      int   // final image size
	FinalH      int
	Transparent float64 // transparent fraction of the classified volume
}

// NewRenderer builds a renderer for a raw 8-bit volume with X varying
// fastest (data[(z*ny+y)*nx+x]).
func NewRenderer(data []uint8, nx, ny, nz int, cfg Config) (*Renderer, error) {
	if len(data) != nx*ny*nz {
		return nil, fmt.Errorf("shearwarp: volume data length %d != %d*%d*%d", len(data), nx, ny, nz)
	}
	if nx < 2 || ny < 2 || nz < 2 {
		return nil, fmt.Errorf("shearwarp: volume too small (%dx%dx%d)", nx, ny, nz)
	}
	v := &vol.Volume{Nx: nx, Ny: ny, Nz: nz, Data: data}
	return newRenderer(v, cfg), nil
}

// NewMRIPhantom builds a renderer over the synthetic MRI head phantom.
func NewMRIPhantom(n int, cfg Config) *Renderer {
	return newRenderer(vol.MRIBrain(n), cfg)
}

// NewCTPhantom builds a renderer over the synthetic CT head phantom. When
// cfg.Transfer is unset it defaults to the CT transfer function.
func NewCTPhantom(n int, cfg Config) *Renderer {
	cfg.Transfer = TransferCT
	return newRenderer(vol.CTHead(n), cfg)
}

// isoThreshold returns the effective isosurface threshold of a config
// (0 means the default).
func isoThreshold(cfg Config) uint8 {
	if cfg.IsoThreshold == 0 {
		return classify.DefaultIsoThreshold
	}
	return cfg.IsoThreshold
}

func newRenderer(v *vol.Volume, cfg Config) *Renderer {
	opt := render.Options{
		OpacityCorrection: cfg.OpacityCorrection,
		PreprocProcs:      cfg.Procs,
		Mode:              rendermode.Mode(cfg.Mode),
	}
	switch {
	case cfg.Mode == ModeIsosurface:
		// The isosurface mode lives in classification: the thresholding
		// transfer function replaces the preset, and the over-blend
		// renders the resulting binary-opaque volume as a surface.
		opt.Transfer = classify.IsoTransfer(isoThreshold(cfg))
	case cfg.Transfer == TransferCT:
		opt.Transfer = classify.CTTransfer
	}
	return newRendererFrom(render.New(v, opt), cfg)
}

// newRendererFrom wraps an already-prepared pipeline renderer with the
// public algorithm dispatch; NewRenderer and PreparedVolume.NewRenderer
// share it so pooled and private renderers behave identically.
func newRendererFrom(r *render.Renderer, cfg Config) *Renderer {
	if cfg.Procs < 1 {
		cfg.Procs = 1
	}
	if cfg.Algorithm == AlgorithmAuto {
		cfg.Algorithm = Serial
	}
	re := &Renderer{cfg: cfg, r: r}
	if cfg.CollectStats && cfg.Algorithm != RayCast {
		re.own = telemetry.NewFrameSpans(time.Now())
	}
	if cfg.Algorithm == NewParallel {
		re.nr = newalg.NewRenderer(r, newalg.Config{Procs: cfg.Procs})
	}
	if cfg.Algorithm == RayCast {
		re.rc = raycast.New(r.Classified)
		re.rc.Mode = r.Mode
	}
	re.SetFaultInjector(cfg.Faults)
	re.SetSpanRecorder(nil)
	return re
}

// SetFaultInjector attaches (or, with nil, detaches) a fault injector to
// this renderer's frames. Call it between frames only.
func (re *Renderer) SetFaultInjector(in *faultinject.Injector) { re.r.Faults = in }

// SetSpanRecorder attaches (or, with nil, detaches) a per-request span
// recorder to this renderer's frames: subsequent frames record one
// timestamped span per worker phase into it (the render service's
// per-request traces), and LastBreakdown is derived from those spans. Like the fault injector it follows the nil-checked
// instrumentation contract — detached, the frame loop performs no extra
// clock reads and allocates nothing (a Config.CollectStats renderer falls
// back to its own recorder instead). Call it between frames only; the
// caller retains ownership of the recorder and must detach it before
// reusing the renderer for an untraced request.
func (re *Renderer) SetSpanRecorder(sr *telemetry.FrameSpans) {
	if sr == nil {
		sr = re.own
	}
	re.r.Spans = sr
}

// Close releases the renderer's persistent worker goroutines (NewParallel
// keeps one per processor parked between frames). It is optional — an
// abandoned Renderer merely parks its workers — but pools that cycle
// many renderers use it to release them deterministically. The renderer
// must not be used after Close.
func (re *Renderer) Close() {
	if re.nr != nil {
		re.nr.Close()
		re.nr = nil
	}
}

// Render renders one frame from the given viewpoint (degrees of yaw about
// the vertical axis, then pitch). It is the uncancellable entry point: it
// runs under context.Background and panics on the (typed) errors that
// RenderCtx returns; services use RenderCtx.
func (re *Renderer) Render(yawDeg, pitchDeg float64) (*Image, FrameInfo) {
	im, info, err := re.RenderCtx(context.Background(), yawDeg, pitchDeg)
	if err != nil {
		panic(err)
	}
	return im, info
}

// validateView checks the viewpoint before any rendering state is
// touched: the angles must be finite and the factorization they imply
// must be non-degenerate. Factorization panics ("singular matrix",
// "singular 2-D warp", oversize images) convert to *ValidationError here,
// at the API boundary, rather than surfacing as worker panics mid-frame.
func (re *Renderer) validateView(yawDeg, pitchDeg, yaw, pitch float64) (f xform.Factorization, err error) {
	if math.IsNaN(yawDeg) || math.IsInf(yawDeg, 0) {
		return f, &ValidationError{Param: "yaw", Reason: fmt.Sprintf("must be finite, got %v", yawDeg)}
	}
	if math.IsNaN(pitchDeg) || math.IsInf(pitchDeg, 0) {
		return f, &ValidationError{Param: "pitch", Reason: fmt.Sprintf("must be finite, got %v", pitchDeg)}
	}
	defer func() {
		if v := recover(); v != nil {
			err = &ValidationError{Param: "view", Reason: fmt.Sprint(v)}
		}
	}()
	v := re.r.Vol
	f = xform.Factorize(v.Nx, v.Ny, v.Nz, xform.ViewMatrix(v.Nx, v.Ny, v.Nz, yaw, pitch))
	return f, nil
}

// renderRayCast runs the image-order baseline over the view's
// factorization with panic containment (it has no cooperative cancel
// points; the context is checked only before it starts).
func (re *Renderer) renderRayCast(f *xform.Factorization, cnt *raycast.Counters) (out *img.Final, err error) {
	defer func() {
		if v := recover(); v != nil {
			out, err = nil, render.NewFrameError(0, "raycast", -1, v)
		}
	}()
	return re.rc.Render(f, cnt), nil
}

// RenderCtx is Render with request validation, cooperative cancellation
// and panic isolation. Invalid viewpoints return a *ValidationError
// before any work starts; a cancelled ctx stops the frame within one
// scanline of work per worker and returns ctx's error; a panic anywhere
// in the pipeline is recovered into a *render.FrameError, after which the
// renderer remains usable and its next frame renders byte-identically.
// On error the returned Image is nil. The returned Image of the parallel
// algorithms is valid until the next render on this Renderer (see Image).
func (re *Renderer) RenderCtx(ctx context.Context, yawDeg, pitchDeg float64) (*Image, FrameInfo, error) {
	yaw := yawDeg * math.Pi / 180
	pitch := pitchDeg * math.Pi / 180
	f, err := re.validateView(yawDeg, pitchDeg, yaw, pitch)
	if err != nil {
		return nil, FrameInfo{}, err
	}
	info := FrameInfo{Transparent: re.r.Classified.TransparentFrac()}
	re.bd = nil
	sr := re.r.Spans
	if sr != nil && sr == re.own {
		sr.Reset(time.Now())
	}
	// The frame's spans are the ones recorded from here on: a caller's
	// recorder may already hold request-lane spans or earlier frames.
	mark, dropped := len(sr.Spans()), sr.Dropped()
	var out *img.Final
	switch re.cfg.Algorithm {
	case OldParallel, NewParallel:
		var res *render.Result
		if re.nr != nil {
			var nres *newalg.Result
			if nres, err = re.nr.RenderFrameCtx(ctx, yaw, pitch); err == nil {
				res, info.Profiled = &nres.Result, nres.Profiled
			}
		} else {
			res, err = oldalg.RenderCtx(ctx, re.r, yaw, pitch, oldalg.Config{Procs: re.cfg.Procs})
		}
		if err != nil {
			return nil, FrameInfo{}, err
		}
		st := res.Stats()
		out = res.Out
		info.Cycles = st.TotalCycles()
		info.Samples = st.Composite.Samples
		info.Scanlines = st.Composite.Scanlines
		rows := re.account(len(res.PerProc), mark, dropped)
		for i := range res.PerProc {
			ps := &res.PerProc[i]
			info.Steals += ps.Steals
			if rows != nil {
				countInto(&rows[i], &ps.Composite, &ps.Warp, ps.Chunks, ps.Steals)
			}
		}
	case RayCast:
		if err := ctx.Err(); err != nil {
			return nil, FrameInfo{}, err
		}
		var cnt raycast.Counters
		o, err := re.renderRayCast(&f, &cnt)
		if err != nil {
			return nil, FrameInfo{}, err
		}
		out = o
		info.Cycles = cnt.Cycles
		info.Samples = cnt.Composites
	default: // Serial
		o, st, err := re.r.RenderSerialCtx(ctx, yaw, pitch)
		if err != nil {
			return nil, FrameInfo{}, err
		}
		out = o
		info.Cycles = st.TotalCycles()
		info.Samples = st.Composite.Samples
		info.Scanlines = st.Composite.Scanlines
		if rows := re.account(1, mark, dropped); rows != nil {
			countInto(&rows[0], &st.Composite, &st.Warp, 0, 0)
		}
	}
	info.IntW, info.IntH = f.IntW, f.IntH
	info.FinalW, info.FinalH = f.FinalW, f.FinalH
	return &Image{f: out}, info, nil
}

// account derives the frame just rendered — the spans recorded after mark
// — into the renderer's breakdown and returns its per-worker rows for the
// caller to fill with the algorithm's work counters. It returns nil, and
// LastBreakdown stays nil, when no recorder is attached or the recorder
// dropped spans during the frame.
func (re *Renderer) account(workers, mark int, dropped int64) []perf.WorkerBreakdown {
	fb := &re.pb.fb
	sr := re.r.Spans
	if sr == nil || !telemetry.Breakdown(fb, workers, sr.Spans()[mark:], sr.Dropped()-dropped) {
		return nil
	}
	fb.Algorithm = re.cfg.Algorithm.String()
	re.bd = &re.pb
	return fb.PerWorker
}

// countInto fills one worker's breakdown row from the kernel counters its
// algorithm returned.
func countInto(w *perf.WorkerBreakdown, c *composite.Counters, wc *warp.Counters, chunks, steals int) {
	w.Scanlines, w.EarlyTermSkips, w.WarpSpans = c.Scanlines, c.Skips, wc.Rows
	w.Chunks, w.Steals = int64(chunks), int64(steals)
}

// PhaseBreakdown is the per-worker execution-time breakdown of one frame
// — the native, wall-clock analog of the paper's Figure 5/6 busy /
// synchronization / load-imbalance bars. Obtain one from
// Renderer.LastBreakdown after rendering with Config.CollectStats or an
// attached span recorder.
type PhaseBreakdown struct {
	fb perf.FrameBreakdown
}

// Table renders the breakdown as an aligned text table, one row per
// worker, in the paper's Figure 5/6 vocabulary.
func (b *PhaseBreakdown) Table() string { return b.fb.Table().String() }

// JSON marshals the breakdown (indented, stable field order).
func (b *PhaseBreakdown) JSON() ([]byte, error) { return b.fb.JSON() }

// ImbalanceFrac is the frame's aggregate load-imbalance fraction: mean
// per-worker idle time outside tracked waits over the frame wall time.
func (b *PhaseBreakdown) ImbalanceFrac() float64 { return b.fb.ImbalanceFrac() }

// WallNanos is the frame's wall-clock duration in nanoseconds: the
// envelope of its worker spans.
func (b *PhaseBreakdown) WallNanos() int64 { return b.fb.WallNS }

// Frame exposes the underlying perf.FrameBreakdown for tools inside this
// module (the internal package is not importable from outside).
func (b *PhaseBreakdown) Frame() *perf.FrameBreakdown { return &b.fb }

// LastBreakdown returns the phase breakdown of the most recent Render
// call, derived from the spans its workers recorded; nil when no span
// recorder was attached (see Config.CollectStats and SetSpanRecorder), the
// recorder dropped spans, the frame failed, or the algorithm is RayCast
// (which has no shear-warp phases to break down). The value is reused:
// the next render on this renderer overwrites it.
func (re *Renderer) LastBreakdown() *PhaseBreakdown { return re.bd }

// Mode reports the render mode this renderer runs with. Services report
// it alongside the algorithm in logs and /metrics.
func (re *Renderer) Mode() Mode { return re.cfg.Mode }

// ListFigures returns the IDs and titles of the reproducible paper figures
// and the ablation studies.
func ListFigures() [][2]string {
	var out [][2]string
	for _, f := range experiments.Everything() {
		out = append(out, [2]string{f.ID, f.Title})
	}
	return out
}

// RunFigure regenerates one paper figure ("fig2".."fig22"), ablation
// ("abl-*"), extra ("rates", "attr", "inventory") or "all" at the named
// scale ("small", "default", "large"), writing text tables to w.
func RunFigure(id, scale string, w io.Writer) error {
	return RunFigureFormat(id, scale, "text", w)
}

// RunFigureFormat is RunFigure with a choice of output format: "text"
// (aligned tables) or "csv".
func RunFigureFormat(id, scale, format string, w io.Writer) error {
	sc, ok := experiments.ScaleByName(scale)
	if !ok {
		return fmt.Errorf("shearwarp: unknown scale %q (small, default, large)", scale)
	}
	lab := experiments.NewLab(sc)
	run := func(f experiments.Figure) error {
		for _, tb := range f.Run(lab) {
			var s string
			switch format {
			case "csv":
				s = "# == " + tb.ID + ": " + tb.Title + "\n" + tb.CSV()
			default:
				s = tb.String()
			}
			if _, err := io.WriteString(w, s+"\n"); err != nil {
				return err
			}
		}
		return nil
	}
	if id == "all" {
		for _, f := range experiments.Everything() {
			if err := run(f); err != nil {
				return err
			}
		}
		return nil
	}
	f, ok := experiments.ByID(id)
	if !ok {
		return fmt.Errorf("shearwarp: unknown figure %q", id)
	}
	return run(f)
}
