// Package composite implements the compositing phase of the shear-warp
// algorithm: streaming through the run-length-encoded volume in scanline
// order and accumulating the sheared slices into the intermediate image,
// front to back, with early ray termination via the image's opaque-pixel
// skip links.
//
// The unit of work is one intermediate-image scanline — the task
// granularity of both parallel algorithms in the paper — exposed as
// Ctx.Scanline. The kernel does the real arithmetic and, when a Tracer is
// attached, reports the shared-array ranges it touches so the memory-system
// simulators can replay its reference stream. Work cycles are counted with
// an explicit cost model (the Pixie basic-block-counting analog).
//
// Scanline is split into a traced and an untraced variant: native frames
// (Tracer == nil) run a branch-free fast path with no trace.Array
// indirection or per-pixel tracer checks, while the simulators get the
// instrumented twin. Both share the per-pixel arithmetic, so images and
// counters are bit-identical across the two paths.
package composite

import (
	"math"

	"shearwarp/internal/classify"
	"shearwarp/internal/img"
	"shearwarp/internal/rendermode"
	"shearwarp/internal/rle"
	"shearwarp/internal/trace"
	"shearwarp/internal/xform"
)

// Cost model: cycle counts per primitive operation, playing the role of the
// paper's basic-block instruction counts on a 1-CPI processor. The ratios
// matter more than absolute values: compositing a sample is an order of
// magnitude more work than stepping over a run header, matching Figure 2's
// shear-warp breakdown where compositing dominates looping.
const (
	CyclesPerSample     = 22 // bilinear gather of 4 voxels + composite + test
	CyclesPerEmptyPixel = 3  // pixel visited but sample transparent
	CyclesPerSkip       = 2  // following one opaque-run link
	CyclesPerRun        = 4  // decoding one run header
	CyclesPerVoxelCopy  = 2  // streaming one packed voxel out of the RLE
	CyclesPerSliceSetup = 14 // per-slice shear setup for a scanline
	CyclesPerLineSetup  = 30 // per-scanline task setup
)

// u8f maps a byte to its exact float32 value, hoisting the int-to-float
// conversions out of the per-pixel unpack arithmetic. Integers up to 255
// are exactly representable, so table lookups are bit-identical to inline
// conversions.
var u8f = func() (t [256]float32) {
	for i := range t {
		t[i] = float32(i)
	}
	return
}()

// u8f255 tabulates u8f[i] * (1/255) — the normalized alpha unpack — using
// the identical multiplication, so entries are bit-identical to computing
// the product per pixel.
var u8f255 = func() (t [256]float32) {
	for i := range t {
		t[i] = u8f[i] * (1.0 / 255)
	}
	return
}()

// Counters aggregates kernel work. Cycles is the modeled busy time; the
// remaining fields break it down for the Figure 2-style analyses.
type Counters struct {
	Cycles      int64 // total modeled work cycles
	Samples     int64 // composited (resampled + blended) samples
	EmptyPixels int64 // pixels visited whose resampled alpha was ~0
	Skips       int64 // opaque-run link traversals
	Runs        int64 // run headers decoded
	VoxelsRead  int64 // packed voxels streamed from the RLE
	Slices      int64 // slice visits across scanline tasks
	Scanlines   int64 // scanline tasks executed
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Cycles += other.Cycles
	c.Samples += other.Samples
	c.EmptyPixels += other.EmptyPixels
	c.Skips += other.Skips
	c.Runs += other.Runs
	c.VoxelsRead += other.VoxelsRead
	c.Slices += other.Slices
	c.Scanlines += other.Scanlines
}

// LoopingCycles returns the portion of Cycles spent on control overhead and
// coherence-structure traversal rather than resampling/compositing — the
// paper's "looping time" (Figure 2).
func (c *Counters) LoopingCycles() int64 {
	return c.Cycles - c.Samples*CyclesPerSample
}

// Arrays holds the trace handles of the shared arrays the kernel touches.
// A zero value (invalid handles) disables tracing of that array.
type Arrays struct {
	RunLens  trace.Array // rle.Volume.RunLens, elem 2 bytes
	Vox      trace.Array // rle.Volume.Vox, elem 4 bytes
	IntPix   trace.Array // img.Intermediate.Pix, elem 16 bytes per pixel
	IntLinks trace.Array // img.Intermediate.Links, elem 4 bytes
}

// RegisterArrays lays out the kernel's shared arrays in an address space.
func RegisterArrays(s *trace.AddrSpace, v *rle.Volume, m *img.Intermediate) Arrays {
	return Arrays{
		RunLens:  s.Register("rle.RunLens", 2, len(v.RunLens)),
		Vox:      s.Register("rle.Vox", 4, len(v.Vox)),
		IntPix:   s.Register("int.Pix", 16, m.W*m.H),
		IntLinks: s.Register("int.Links", 4, m.W*m.H),
	}
}

// Ctx carries everything one processor needs to composite scanlines. Each
// simulated or native processor owns its own Ctx (the scratch buffers are
// private); F, V and M are shared. A Ctx may be rebound to a new frame with
// Bind, so renderers can pool contexts instead of allocating per frame.
type Ctx struct {
	F *xform.Factorization
	V *rle.Volume
	M *img.Intermediate

	Tracer trace.Tracer // nil in native mode
	Arrays Arrays

	// Mode selects the per-sample accumulation rule of the untraced path:
	// Composite (the zero value) over-blends front to back with early ray
	// termination, MIP keeps the per-channel maximum of the premultiplied
	// samples (never saturating a pixel, so the active list stays full and
	// early termination is structurally off). Isosurface volumes are
	// classification-time and composite with the standard over-blend, so
	// they run as Composite here. The traced simulator path is
	// composite-only. Set it between frames only; the render layer assigns
	// it after every (re)bind.
	Mode rendermode.Mode

	// alphaLUT, when non-nil, applies Lacroute's view-dependent opacity
	// correction: stored opacities assume unit sample spacing, but the
	// shear samples once per slice, spacing the samples
	// d = sqrt(1 + Si^2 + Sj^2) apart along the ray, so the corrected
	// opacity is 1 - (1-a)^d. Enable with EnableOpacityCorrection.
	alphaLUT []float32
	lutBuf   []float32 // backing storage, reused across rebinds

	// Traced-path scratch. Per slice, the rows hold valid data (decoded
	// voxels, or zero) only over the voxel footprint of the merged pixel
	// spans: decode fills the spans and zeroGaps zeroes the footprint
	// between them, so the pixel kernel reads the rows unconditionally and
	// nothing outside the footprint is ever touched — the full-width clears
	// of a naive scratch wipe never happen.
	row0, row1     []classify.Voxel
	spans0, spans1 []rle.Span
	merged         []pixSpan // shared with the untraced path

	// Untraced-path scratch.
	//
	// act is the scanline's active list: the pixel intervals not yet
	// saturated, maintained across slices instead of re-walking the
	// skip links per merged span. It is seeded from the links once per
	// scanline and updated after each slice by splitting around the
	// pixels that saturated (sat, collected by the kernels in ascending
	// order); actNext is the double buffer for the split.
	//
	// live holds the current slice's live pieces — merged spans
	// intersected with act — each carrying, per contributing line, a
	// tap-source code and the window of taps that are real voxels (see
	// liveIv). A piece whose taps on a line meet one voxel span reads them
	// in place from the packed voxel stream and the kernel masks the taps
	// outside the window to zero; a line absent under the piece reads a
	// shared, never-written zero lane; only a piece whose taps meet several
	// spans of a line (or whose in-place base would leave the stream)
	// stages them through the scratch lanes (vlane). Only the footprint of
	// staged pieces is ever (re)written or read — stale content elsewhere
	// is never touched.
	act, actNext   []pixSpan
	sat            []int32
	live           []liveIv
	vlane0, vlane1 []classify.Voxel
	zvlane         []classify.Voxel // shared zero lane, never written

	// ktab is the half of sliceSetup that depends on the slice alone,
	// tabulated per Bind and indexed by k. tv is linear in k, so the slices
	// that can reach a row are contiguous in front-to-back order; reachSign
	// is +1 when a row's j0 is non-decreasing in that order, -1 otherwise
	// (see reach).
	ktab      []sliceK
	reachSign int

	kargs kernelArgs // the amd64 pixel kernel's argument block
}

// lutSize is the resolution of the opacity-correction table; resampled
// alphas index it linearly.
const lutSize = 1024

// EnableOpacityCorrection builds the per-frame correction table from the
// factorization's shear coefficients. Every processor rendering the same
// frame must make the same choice, or images diverge.
func (c *Ctx) EnableOpacityCorrection() {
	d := math.Sqrt(1 + c.F.Si*c.F.Si + c.F.Sj*c.F.Sj)
	if cap(c.lutBuf) < lutSize+1 {
		c.lutBuf = make([]float32, lutSize+1)
	}
	c.lutBuf = c.lutBuf[:lutSize+1]
	for i := 0; i <= lutSize; i++ {
		a := float64(i) / lutSize
		c.lutBuf[i] = float32(1 - math.Pow(1-a, d))
	}
	c.alphaLUT = c.lutBuf
}

// correctAlpha maps a resampled opacity through the correction table (a
// no-op factor of 1 when correction is disabled).
func (c *Ctx) correctAlpha(aa float32) float32 {
	if c.alphaLUT == nil {
		return aa
	}
	idx := int(aa * lutSize)
	if idx < 0 {
		idx = 0
	}
	if idx >= lutSize {
		idx = lutSize
	}
	return c.alphaLUT[idx]
}

// pixSpan is a pixel-index interval [Lo, Hi) of the intermediate scanline
// that can receive non-transparent samples from the current slice.
type pixSpan struct{ Lo, Hi int }

// liveIv is one live piece of the current slice: a pixel interval [Lo, Hi)
// that both intersects the slice's merged voxel spans and is not yet
// saturated. Its Hi-Lo+1 bilinear taps per contributing line are numbered
// j = 0..Hi-Lo (pixel Lo+j-1 blends taps j-1 and j), and each line carries a
// tap-source code B and a valid-tap window [A, E): tap j is the voxel the
// source holds at j when A <= j < E and an exact zero otherwise. A code
// b >= 0 means the taps meet one voxel span of the line and are read in
// place from the packed voxel stream starting at index b — the window is
// that span, and the stream positions outside it (a neighbouring line's
// voxels) are masked off by the kernel; the sentinel laneZero means the line
// has no voxels under the piece and the kernel reads the shared zero lane;
// any other negative value means the taps were staged, gaps zeroed, into the
// scratch lane starting at index ^b. For the zero and staged lanes the
// window is the whole piece, [0, n+1).
type liveIv struct {
	Lo, Hi int32
	B0, B1 int32
	A0, E0 int32
	A1, E1 int32
}

// laneZero marks a live piece with no contributing voxels on that line.
const laneZero = math.MinInt32

// readPad is how many taps past a piece's last one (tap n) every tap source
// must still be readable for: the eight-wide kernel loads taps j..j+7 and
// j+1..j+8 for pixel group j, and the last group of an n-pixel piece starts
// at most at n-1. The taps past n are masked to zero before any arithmetic.
const readPad = 7

// laneSel resolves a liveIv tap-source code to the slice the kernel reads
// its taps from.
func laneSel(b int32, src, lane, zero []classify.Voxel) []classify.Voxel {
	if b >= 0 {
		return src[b:]
	}
	if b == laneZero {
		return zero
	}
	return lane[^b:]
}

// outside is all ones when tap j lies outside the valid-tap window [a, l]
// (l = E-1, inclusive) and zero when inside: (j-a)|(l-j) is negative exactly
// outside, and the shift smears its sign. t &^ outside(j, a, l) is therefore
// the voxel itself inside the window and an exact zero outside it, with no
// branch.
func outside(j, a, l int) classify.Voxel {
	return classify.Voxel(uint32(((j - a) | (l - j)) >> 63))
}

// NewCtx builds a per-processor compositing context.
func NewCtx(f *xform.Factorization, v *rle.Volume, m *img.Intermediate) *Ctx {
	c := &Ctx{}
	c.Bind(f, v, m)
	return c
}

// Bind points an existing context at a new frame, reusing its scratch
// buffers when they are large enough. It resets the tracer and the opacity
// correction (re-enable per frame as needed), so a pooled context always
// starts in native mode.
func (c *Ctx) Bind(f *xform.Factorization, v *rle.Volume, m *img.Intermediate) {
	c.F, c.V, c.M = f, v, m
	c.Tracer = nil
	c.Arrays = Arrays{}
	c.alphaLUT = nil
	if cap(c.row0) < v.Ni {
		c.row0 = make([]classify.Voxel, v.Ni)
		c.row1 = make([]classify.Voxel, v.Ni)
	} else {
		// Stale contents are harmless: every slice revalidates the rows
		// over the footprint it reads before compositing.
		c.row0 = c.row0[:v.Ni]
		c.row1 = c.row1[:v.Ni]
	}
	// Size the span scratch for the densest scanline of the encoding so
	// steady-state compositing never grows an append (non-transparent runs
	// are at most half the run headers, plus one for an odd tail).
	maxSpans := v.MaxLineRuns/2 + 1
	if cap(c.spans0) < maxSpans {
		c.spans0 = make([]rle.Span, 0, maxSpans)
		c.spans1 = make([]rle.Span, 0, maxSpans)
	}
	if cap(c.merged) < 2*maxSpans {
		c.merged = make([]pixSpan, 0, 2*maxSpans)
	}
	// Active and live intervals are disjoint with at least one dead pixel
	// between them, so a scanline can never hold more than W/2+1 of
	// either; a slice saturates at most W pixels.
	if cap(c.act) < m.W/2+1 {
		c.act = make([]pixSpan, 0, m.W/2+1)
		c.actNext = make([]pixSpan, 0, m.W/2+1)
		c.live = make([]liveIv, 0, m.W/2+1)
	}
	if cap(c.sat) < m.W {
		c.sat = make([]int32, 0, m.W)
	}
	// A live piece spans at most Ni+1 pixels (tap indices -1..Ni), so
	// lanes of Ni+2 cover any piece, plus the readPad taps the eight-wide
	// kernel loads past a piece's last one; the zero lane is made zeroed
	// and never written, so shrinking reslices keep it zero.
	if n := v.Ni + 2 + readPad; cap(c.vlane0) < n {
		c.vlane0 = make([]classify.Voxel, n)
		c.vlane1 = make([]classify.Voxel, n)
		c.zvlane = make([]classify.Voxel, n)
	} else {
		c.vlane0 = c.vlane0[:n]
		c.vlane1 = c.vlane1[:n]
		c.zvlane = c.zvlane[:n]
	}
	c.bindSliceTable()
}

// sliceK is the per-slice half of the shear geometry: everything sliceSetup
// needs that does not depend on the scanline.
type sliceK struct {
	tv      float64 // SliceShift's row offset
	wx, wx1 float64 // column weight and its complement, 1-wx
	off     int     // pixel u gathers voxels u-off and u-off+1
}

// bindSliceTable tabulates sliceK for every slice of the bound frame.
func (c *Ctx) bindSliceTable() {
	f := c.F
	if cap(c.ktab) < f.Nk {
		c.ktab = make([]sliceK, f.Nk)
	}
	c.ktab = c.ktab[:f.Nk]
	for k := range c.ktab {
		tu, tv := f.SliceShift(k)
		// Constant resampling weights along the row (see Factorization).
		tuInt := int(math.Floor(tu))
		tuFrac := tu - float64(tuInt)
		off := tuInt
		wx := 0.0
		if tuFrac > 0 {
			off = tuInt + 1
			wx = 1 - tuFrac
		}
		c.ktab[k] = sliceK{tv: tv, wx: wx, wx1: 1 - wx, off: off}
	}
	// y = vRow - tv is monotone in k whatever the rounding, so j0 rises
	// front to back exactly when tv does not.
	c.reachSign = 1
	if f.Nk > 0 && c.ktab[f.KFront].tv < c.ktab[f.KFront+(f.Nk-1)*f.KStep].tv {
		c.reachSign = -1
	}
}

// sliceGeom is the per-slice resampling setup shared by the traced and
// untraced scanline kernels.
type sliceGeom struct {
	j0                 int
	have0, have1       bool
	off                int
	fractional         bool
	w00, w10, w01, w11 float32
}

// sliceSetup computes the shear geometry of slice k against intermediate
// row vRow into g. ok is false when the slice cannot reach the scanline.
func (c *Ctx) sliceSetup(vRow, k int, g *sliceGeom) (ok bool) {
	sk := &c.ktab[k]
	y := float64(vRow) - sk.tv
	j0 := int(math.Floor(y))
	wy := y - float64(j0)
	if j0 < -1 || j0 >= c.F.Nj {
		return false
	}
	g.j0 = j0
	g.have0 = j0 >= 0 && wy < 1
	g.have1 = j0+1 < c.F.Nj && wy > 0

	g.off = sk.off
	g.fractional = sk.wx > 0
	g.w00 = float32(sk.wx1 * (1 - wy))
	g.w10 = float32(sk.wx * (1 - wy))
	g.w01 = float32(sk.wx1 * wy)
	g.w11 = float32(sk.wx * wy)
	return true
}

// rowJ0 is sliceSetup's j0 for the idx-th slice in front-to-back order.
func (c *Ctx) rowJ0(vRow, idx int) int {
	return int(math.Floor(float64(vRow) - c.ktab[c.F.KFront+idx*c.F.KStep].tv))
}

// reach returns the front-to-back slice indices [lo, hi) that can reach row
// vRow — those for which sliceSetup reports ok. They are contiguous because
// j0 is monotone in idx (reachSign gives the direction), so both ends are
// found by bisection over the very floor sliceSetup evaluates.
func (c *Ctx) reach(vRow int) (lo, hi int) {
	// With q = reachSign*j0 non-decreasing, -1 <= j0 < Nj reads
	// -1 <= q < Nj rising and 1-Nj <= q < 2 falling.
	first, past := -1, c.F.Nj
	if c.reachSign < 0 {
		first, past = 1-c.F.Nj, 2
	}
	lo = c.firstAtLeast(vRow, first, 0)
	return lo, c.firstAtLeast(vRow, past, lo)
}

// firstAtLeast bisects [from, Nk) for the first idx whose reachSign*j0 is at
// least bound.
func (c *Ctx) firstAtLeast(vRow, bound, from int) int {
	a, b := from, c.F.Nk
	for a < b {
		m := int(uint(a+b) >> 1)
		if c.reachSign*c.rowJ0(vRow, m) >= bound {
			b = m
		} else {
			a = m + 1
		}
	}
	return a
}

// Scanline composites intermediate-image row vRow across all slices, front
// to back, and returns the work cycles it spent. The returned cycles are
// also accumulated into cnt along with the detailed counters.
func (c *Ctx) Scanline(vRow int, cnt *Counters) int64 {
	if c.Tracer == nil {
		return c.scanlineUntraced(vRow, cnt)
	}
	return c.scanlineTraced(vRow, cnt)
}

// scanlineUntraced is the native fast path: no tracer checks or trace.Array
// indirection anywhere in the slice, span and pixel loops.
//
// It seeds an active list of not-yet-saturated pixel intervals from the
// skip links once and bisects for the slices that can reach the row, then
// per reachable slice (1) windows the contributing lines' encode-time span
// index without touching the packed voxels, (2) merges the spans into pixel
// intervals — or, when both lines contribute with a fractional column
// weight, reads them from the encoding's line-pair index — (3) intersects
// those with the active list — charging the reference walk's skip-link
// traversals — and classifies each surviving
// piece's tap source per line (the voxel stream in place behind a valid-tap
// window, the shared zero lane, or a staged scratch lane where the taps meet
// several spans), and (4) runs a checkless pixel kernel over the pieces,
// splitting the active list around the pixels that saturated. The cost
// model charges the reference algorithm's full traversal (every slice
// visit, and every run header and packed voxel of the contributing lines,
// identically to the traced twin), while the implementation visits only
// the reachable slices and reads only the live footprint; images and all
// counter totals stay bit-identical to scanlineTraced — see DESIGN.md for
// the reordering argument.
func (c *Ctx) scanlineUntraced(vRow int, cnt *Counters) int64 {
	f := c.F
	start := cnt.Cycles
	cnt.Scanlines++
	cnt.Cycles += CyclesPerLineSetup
	V := c.V
	c.initAct(vRow)
	c.kernelRow(vRow)

	// The slice loop accumulates its counter charges in locals and flushes
	// them once per scanline: the totals are plain int64 sums, so batching
	// is exactly associative and the flushed counters (and Cycles, charged
	// per unit) are bit-identical to the traced walk's running updates.
	var slices, runs, nvox, skips int64
	// Only the slices in [lo, hi) can reach this row. The reference walk
	// still visits the others, and all a visit does there is the
	// saturated-row test and the setup charge, so they are charged in bulk:
	// the leading ones here (the active list cannot change before lo), the
	// trailing ones after the loop.
	lo, hi := c.reach(vRow)
	idx := 0
	if len(c.act) > 0 {
		slices = int64(lo)
		idx = lo
	}
	for ; idx < hi; idx++ {
		// Row saturated: early ray termination ends the whole task. The
		// active list is empty exactly when Skip(0) reports a full row,
		// so the counter charge matches the traced walk.
		if len(c.act) == 0 {
			break
		}
		k := f.KFront + idx*f.KStep
		slices++

		var g sliceGeom
		if !c.sliceSetup(vRow, k, &g) {
			continue // not inside [lo, hi): reach names exactly the ok slices
		}

		// Window the encode-time span index of the contributing lines and
		// charge the cost model's full-line traversal in O(1) from the
		// offset tables: the run and voxel counts are sums over the same
		// ranges the traced walk charges span by span, and int64 addition
		// is order-independent, so counter identity with the simulator
		// holds even though the native decode below only touches the live
		// footprint.
		var lo0, cn0, vx0, lo1, cn1, vx1 []int32
		if g.have0 {
			s := k*V.Nj + g.j0
			a, b := V.SpanOff[s], V.SpanOff[s+1]
			lo0, cn0, vx0 = V.SpanLo[a:b], V.SpanCnt[a:b], V.SpanVox[a:b]
			runs += int64(V.RunOff[s+1] - V.RunOff[s])
			nvox += int64(V.VoxOff[s+1] - V.VoxOff[s])
		}
		if g.have1 {
			s := k*V.Nj + g.j0 + 1
			a, b := V.SpanOff[s], V.SpanOff[s+1]
			lo1, cn1, vx1 = V.SpanLo[a:b], V.SpanCnt[a:b], V.SpanVox[a:b]
			runs += int64(V.RunOff[s+1] - V.RunOff[s])
			nvox += int64(V.VoxOff[s+1] - V.VoxOff[s])
		}
		if len(lo0)+len(lo1) == 0 {
			continue
		}
		if g.have0 && g.have1 && g.fractional {
			s := k*V.Nj + g.j0
			skips += c.pairIntersectClassify(V.Pairs[V.PairOff[s]:V.PairOff[s+1]], lo0, cn0, vx0, lo1, cn1, vx1, g.off)
		} else {
			lead := 0
			if g.fractional {
				lead = 1
			}
			skips += c.mergeIntersectClassify(lo0, cn0, vx0, lo1, cn1, vx1, g.off, lead)
		}
		if len(c.live) == 0 {
			continue
		}
		c.compositeLive(vRow, &g, cnt)
		if len(c.sat) > 0 {
			c.applySat(vRow)
		}
	}
	if idx < f.Nk {
		if len(c.act) == 0 {
			skips++ // the walk's next visit finds the row saturated and ends
		} else {
			slices += int64(f.Nk - idx)
		}
	}
	cnt.Slices += slices
	cnt.Runs += runs
	cnt.VoxelsRead += nvox
	cnt.Skips += skips
	cnt.Cycles += slices*CyclesPerSliceSetup + runs*CyclesPerRun +
		nvox*CyclesPerVoxelCopy + skips*CyclesPerSkip
	return cnt.Cycles - start
}

// initAct seeds the scanline's active list with the intervals of pixels
// the skip links do not mark opaque. It reads the links directly — link
// values name the length of the opaque run starting at a pixel — and
// charges nothing: the reference walk's link traversals are accounted
// where the merged spans actually encounter dead pixels.
func (c *Ctx) initAct(vRow int) {
	M := c.M
	links := M.Links[vRow*M.W : vRow*M.W+M.W]
	c.act = c.act[:0]
	u := 0
	for u < len(links) {
		if n := links[u]; n > 0 {
			u += int(n)
			continue
		}
		a := u
		for u < len(links) && links[u] == 0 {
			u++
		}
		c.act = append(c.act, pixSpan{a, u})
	}
}

// applySat splits the active list around the pixels the slice kernel just
// saturated (ascending, each inside some active interval) and marks them
// in the image's skip links so Opaque/RowOpaqueCount and any later traced
// pass see the same opacity state as the reference walk.
func (c *Ctx) applySat(vRow int) {
	M := c.M
	c.actNext = c.actNext[:0]
	ai := 0
	for _, s := range c.sat {
		u := int(s)
		M.MarkOpaque(u, vRow)
		for ai < len(c.act) && c.act[ai].Hi <= u {
			c.actNext = append(c.actNext, c.act[ai])
			ai++
		}
		a := c.act[ai]
		if a.Lo < u {
			c.actNext = append(c.actNext, pixSpan{a.Lo, u})
		}
		if u+1 < a.Hi {
			c.act[ai].Lo = u + 1
		} else {
			ai++
		}
	}
	c.actNext = append(c.actNext, c.act[ai:]...)
	c.act, c.actNext = c.actNext, c.act
	c.sat = c.sat[:0]
}

// scanlineTraced is the instrumented twin of scanlineUntraced, emitting the
// shared-array reference stream for the memory-system simulators. The
// arithmetic and counters are identical.
func (c *Ctx) scanlineTraced(vRow int, cnt *Counters) int64 {
	f, V, M := c.F, c.V, c.M
	start := cnt.Cycles
	cnt.Scanlines++
	cnt.Cycles += CyclesPerLineSetup

	for idx := 0; idx < f.Nk; idx++ {
		if M.Skip(0, vRow) >= M.W {
			c.Tracer.Read(c.Arrays.IntLinks, M.PixelIndex(0, vRow), 1)
			cnt.Skips++
			cnt.Cycles += CyclesPerSkip
			break
		}
		k := f.KFront + idx*f.KStep
		cnt.Slices++
		cnt.Cycles += CyclesPerSliceSetup

		var g sliceGeom
		if !c.sliceSetup(vRow, k, &g) {
			continue
		}

		c.spans0 = c.spans0[:0]
		c.spans1 = c.spans1[:0]
		if g.have0 {
			c.spans0 = V.AppendSpans(k, g.j0, c.spans0)
			c.decodeSpansTraced(k, g.j0, c.spans0, c.row0, cnt)
		}
		if g.have1 {
			c.spans1 = V.AppendSpans(k, g.j0+1, c.spans1)
			c.decodeSpansTraced(k, g.j0+1, c.spans1, c.row1, cnt)
		}
		if len(c.spans0)+len(c.spans1) == 0 {
			continue
		}
		c.mergePixelSpans(g.off, g.fractional)
		c.zeroGaps(c.spans0, c.row0, g.off)
		c.zeroGaps(c.spans1, c.row1, g.off)

		rowBase := vRow * M.W
		for _, ps := range c.merged {
			u := ps.Lo
			for u < ps.Hi {
				if M.Links[rowBase+u] > 0 {
					c.Tracer.Read(c.Arrays.IntLinks, rowBase+u, 1)
					u = M.Skip(u, vRow)
					cnt.Skips++
					cnt.Cycles += CyclesPerSkip
					continue
				}
				segStart := u
				for u < ps.Hi && M.Links[rowBase+u] == 0 {
					if c.compositePixel(vRow, u, g.off, g.w00, g.w10, g.w01, g.w11, cnt) {
						c.Tracer.Write(c.Arrays.IntLinks, rowBase+u, 1)
					}
					u++
				}
				if u > segStart {
					c.Tracer.Read(c.Arrays.IntPix, rowBase+segStart, u-segStart)
					c.Tracer.Write(c.Arrays.IntPix, rowBase+segStart, u-segStart)
					c.Tracer.Read(c.Arrays.IntLinks, rowBase+segStart, u-segStart)
				}
			}
		}
	}
	return cnt.Cycles - start
}

// mergeIntersectClassify is the untraced path's per-slice sweep: it merges
// the two contributing lines' SoA span windows into coalesced pixel
// intervals (the same intervals the traced path's mergePixelSpans
// produces), intersects each with the active list, and appends every
// surviving piece to c.live with its per-line tap source and valid-tap
// window resolved (staged into the scratch lanes only where the taps meet
// more than one span of the line). It returns the
// number of skip-link traversals the reference walk would perform: one per
// maximal dead gap each merged interval encounters. That count is exact
// because the reference walk calls Skip once whenever it lands on a marked
// pixel and the call jumps over the whole maximal run; hoisting the
// intersection before the compositing is safe because a pixel saturating
// can only mark positions at or behind itself, so no link ahead of the
// walk changes while a slice composites (DESIGN.md spells out the
// argument). Everything runs in one pass with all cursors in locals, so
// the per-slice cost is one call regardless of how many pieces survive.
func (c *Ctx) mergeIntersectClassify(lo0, cn0, vx0, lo1, cn1, vx1 []int32, off, lead int) int64 {
	live := c.live[:0]
	act := c.act
	W := c.M.W
	vox := c.V.Vox
	nvox := len(vox)
	const inf = int(1) << 30
	i0, i1 := 0, 0
	ai := 0
	n0, n1 := len(lo0), len(lo1)
	curLo, curHi := 0, -1 // pending merged interval; curHi < 0 means none
	f0, f1 := 0, 0        // span-window start of the pending interval, per line
	var skips int64
	for {
		// Pull the next span's pixel interval (or a sentinel once both
		// streams are exhausted) and extend the pending merged interval
		// while they touch; a gap — or exhaustion — finalizes the pending
		// interval below before starting the next.
		plo, phi := inf, inf
		from0 := false
		if i0 < n0 || i1 < n1 {
			var s, e int
			if i1 >= n1 || (i0 < n0 && lo0[i0] <= lo1[i1]) {
				s = int(lo0[i0])
				e = s + int(cn0[i0])
				i0++
				from0 = true
			} else {
				s = int(lo1[i1])
				e = s + int(cn1[i1])
				i1++
			}
			// A voxel span [s, e) is sampled by pixels [s+off-lead, e+off),
			// clamped to the row.
			plo = s + off - lead
			phi = e + off
			if plo < 0 {
				plo = 0
			}
			if phi > W {
				phi = W
			}
			if plo >= phi {
				continue
			}
			if curHi >= 0 && plo <= curHi {
				if phi > curHi {
					curHi = phi
				}
				continue
			}
		}
		if curHi >= 0 {
			// Finalize [curLo, curHi): intersect with the active list and
			// classify each surviving piece's tap sources against the
			// interval's span windows [f0, i0) and [f1, i1). The windows
			// may include the gap span that triggered this finalize, but
			// its pixel projection starts past curHi so it can never
			// overlap a piece's tap range.
			cc0, cc1 := f0, f1
			u := curLo
			for ai < len(act) && act[ai].Hi <= u {
				ai++
			}
			for u < curHi {
				if ai == len(act) {
					skips++ // one link jump clears the rest of the interval
					break
				}
				a := act[ai]
				if a.Lo > u {
					skips++ // jump over the dead gap in front of act[ai]
					u = a.Lo
					if u >= curHi {
						break
					}
				}
				e := a.Hi
				if e > curHi {
					e = curHi
				}
				x0 := u - off // first tap of the piece (>= -1)
				x1 := e - off // last tap, inclusive
				n := e - u
				iv := liveIv{Lo: int32(u), Hi: int32(e), B0: laneZero, B1: laneZero,
					E0: int32(n + 1), E1: int32(n + 1)}
				for cc0 < i0 && int(lo0[cc0])+int(cn0[cc0]) <= x0 {
					cc0++
				}
				if cc0 < i0 && int(lo0[cc0]) <= x1 {
					// The taps meet span cc0. If they meet no other, they
					// are read where they lie: b is where tap 0 would sit
					// were the span's voxels to extend over the whole piece,
					// and the stream must hold readPad voxels past tap n.
					s := int(lo0[cc0])
					b := int(vx0[cc0]) + x0 - s
					if (cc0+1 == n0 || int(lo0[cc0+1]) > x1) && b >= 0 && b+n+readPad < nvox {
						iv.B0 = int32(b)
						iv.A0 = int32(max(s-x0, 0))
						iv.E0 = int32(min(s+int(cn0[cc0])-x0, n+1))
					} else {
						fillLane(lo0, cn0, vx0, vox, c.vlane0, cc0, x0, x1)
						iv.B0 = ^int32(x0 + 1)
					}
				}
				for cc1 < i1 && int(lo1[cc1])+int(cn1[cc1]) <= x0 {
					cc1++
				}
				if cc1 < i1 && int(lo1[cc1]) <= x1 {
					s := int(lo1[cc1])
					b := int(vx1[cc1]) + x0 - s
					if (cc1+1 == n1 || int(lo1[cc1+1]) > x1) && b >= 0 && b+n+readPad < nvox {
						iv.B1 = int32(b)
						iv.A1 = int32(max(s-x0, 0))
						iv.E1 = int32(min(s+int(cn1[cc1])-x0, n+1))
					} else {
						fillLane(lo1, cn1, vx1, vox, c.vlane1, cc1, x0, x1)
						iv.B1 = ^int32(x0 + 1)
					}
				}
				live = append(live, iv)
				u = e
				if u >= curHi {
					break
				}
				ai++
			}
		}
		if plo == inf {
			c.live = live
			return skips
		}
		curLo, curHi = plo, phi
		f0, f1 = i0, i1
		if from0 {
			f0 = i0 - 1
		} else {
			f1 = i1 - 1
		}
	}
}

// pairIntersectClassify is mergeIntersectClassify for the visits the
// encoding's line-pair index describes — both lines present and a
// fractional column weight: it reads the merged intervals as the pair's
// components instead of merging the two span streams, and charges a
// component that lies wholly on saturated pixels its one skip without
// looking at its spans. A component is the voxel interval [Lo, Hi) the
// reference coalesces its spans' [lo-1, lo+cnt) into, so shifted by off and
// clamped to the row it is the reference's merged pixel interval, and its
// span cursors S0, S1 start at or before the first span that can meet a
// piece's taps; pieces, tap sources, staged lanes and skips are therefore
// the reference's (FuzzPairIndexMatchesMerge holds the two equal).
func (c *Ctx) pairIntersectClassify(comps []rle.PairComp, lo0, cn0, vx0, lo1, cn1, vx1 []int32, off int) int64 {
	live := c.live[:0]
	act := c.act
	W := c.M.W
	vox := c.V.Vox
	nvox := len(vox)
	n0, n1 := len(lo0), len(lo1)
	ai := 0
	var skips int64
	for ci := 0; ci < len(comps); ci++ {
		cp := &comps[ci]
		lo := max(int(cp.Lo)+off, 0)
		hi := min(int(cp.Hi)+off, W)
		if lo >= hi {
			if lo >= W {
				break // so is every later component
			}
			continue
		}
		for ai < len(act) && act[ai].Hi <= lo {
			ai++
		}
		if ai == len(act) {
			// One link jump clears each remaining component inside the row.
			for _, cp := range comps[ci:] {
				if int(cp.Lo)+off >= W {
					break
				}
				skips++
			}
			break
		}
		if act[ai].Lo >= hi {
			skips++ // the component lies in the dead gap in front of act[ai]
			continue
		}
		cc0, cc1 := int(cp.S0), int(cp.S1)
		for u := lo; ; ai++ {
			a := act[ai]
			if a.Lo > u {
				skips++
				u = a.Lo
				if u >= hi {
					break
				}
			}
			e := min(a.Hi, hi)
			// The piece's tap sources, as mergeIntersectClassify resolves
			// them.
			x0 := u - off
			x1 := e - off
			n := e - u
			iv := liveIv{Lo: int32(u), Hi: int32(e), B0: laneZero, B1: laneZero,
				E0: int32(n + 1), E1: int32(n + 1)}
			for cc0 < n0 && int(lo0[cc0])+int(cn0[cc0]) <= x0 {
				cc0++
			}
			if cc0 < n0 && int(lo0[cc0]) <= x1 {
				s := int(lo0[cc0])
				b := int(vx0[cc0]) + x0 - s
				if (cc0+1 == n0 || int(lo0[cc0+1]) > x1) && b >= 0 && b+n+readPad < nvox {
					iv.B0 = int32(b)
					iv.A0 = int32(max(s-x0, 0))
					iv.E0 = int32(min(s+int(cn0[cc0])-x0, n+1))
				} else {
					fillLane(lo0, cn0, vx0, vox, c.vlane0, cc0, x0, x1)
					iv.B0 = ^int32(x0 + 1)
				}
			}
			for cc1 < n1 && int(lo1[cc1])+int(cn1[cc1]) <= x0 {
				cc1++
			}
			if cc1 < n1 && int(lo1[cc1]) <= x1 {
				s := int(lo1[cc1])
				b := int(vx1[cc1]) + x0 - s
				if (cc1+1 == n1 || int(lo1[cc1+1]) > x1) && b >= 0 && b+n+readPad < nvox {
					iv.B1 = int32(b)
					iv.A1 = int32(max(s-x0, 0))
					iv.E1 = int32(min(s+int(cn1[cc1])-x0, n+1))
				} else {
					fillLane(lo1, cn1, vx1, vox, c.vlane1, cc1, x0, x1)
					iv.B1 = ^int32(x0 + 1)
				}
			}
			live = append(live, iv)
			u = e
			if u >= hi {
				break
			}
			if ai+1 == len(act) {
				skips++ // one link jump clears the rest of the component
				break
			}
		}
	}
	c.live = live
	return skips
}

// fillLane stages one piece's taps (inclusive tap range [x0, x1]) into the
// scratch lane — voxel x at lane index x+1, gaps between the line's spans
// zeroed — starting from span cursor i.
func fillLane(lo, cn, vx []int32, src, lane []classify.Voxel, i, x0, x1 int) {
	// Manual element loops: segments are typically a handful of voxels, so
	// plain stores beat the memmove/memclr call overhead of copy/clear.
	n := len(lo)
	x := x0
	j := i
	for x <= x1 {
		if j < n && int(lo[j]) <= x {
			e := int(lo[j]) + int(cn[j])
			stop := x1 + 1
			if e < stop {
				stop = e
			}
			b := int(vx[j]) + x - int(lo[j])
			for ; x < stop; x++ {
				lane[x+1] = src[b]
				b++
			}
			if stop == e {
				j++
			}
			continue
		}
		g := x1 + 1
		if j < n && int(lo[j]) < g {
			g = int(lo[j])
		}
		for ; x < g; x++ {
			lane[x+1] = 0
		}
	}
}

// decodeSpansTraced streams the span voxels into the scratch row and emits
// the RunLens/Vox reference stream; counter totals match the untraced
// decode exactly.
func (c *Ctx) decodeSpansTraced(k, j int, spans []rle.Span, row []classify.Voxel, cnt *Counters) {
	s := c.V.ScanlineID(k, j)
	runs := int(c.V.RunOff[s+1] - c.V.RunOff[s])
	cnt.Runs += int64(runs)
	cnt.Cycles += int64(runs) * CyclesPerRun
	if runs > 0 {
		c.Tracer.Read(c.Arrays.RunLens, int(c.V.RunOff[s]), runs)
	}
	voxBase := int(c.V.VoxOff[s])
	_, vox := c.V.Scanline(k, j)
	for _, sp := range spans {
		copy(row[sp.Start:sp.End], vox[sp.VoxStart:sp.VoxStart+sp.End-sp.Start])
		n := sp.End - sp.Start
		cnt.VoxelsRead += int64(n)
		cnt.Cycles += int64(n) * CyclesPerVoxelCopy
		c.Tracer.Read(c.Arrays.Vox, voxBase+sp.VoxStart, n)
	}
}

// zeroGaps zeroes the scratch-row positions inside the merged spans' voxel
// footprint that the line's own spans did not fill, so the pixel kernel can
// read the rows unconditionally. Both span lists are sorted and disjoint,
// so one monotone sweep suffices; the work is bounded by the footprint
// length and is typically a few voxels around each span edge.
func (c *Ctx) zeroGaps(spans []rle.Span, row []classify.Voxel, off int) {
	si := 0
	for _, ps := range c.merged {
		// Pixels [Lo, Hi) read voxels [Lo-off, Hi-off+1), clamped to the row.
		a := ps.Lo - off
		b := ps.Hi - off + 1
		if a < 0 {
			a = 0
		}
		if b > len(row) {
			b = len(row)
		}
		for a < b {
			for si < len(spans) && spans[si].End <= a {
				si++
			}
			if si < len(spans) && spans[si].Start <= a {
				a = spans[si].End // already filled through the span
				continue
			}
			e := b
			if si < len(spans) && spans[si].Start < b {
				e = spans[si].Start
			}
			clear(row[a:e])
			a = e
		}
	}
}

// mergePixelSpans converts the voxel spans of both contributing lines into
// a coalesced, sorted list of pixel intervals on the intermediate scanline.
// A voxel span [s, e) is sampled by pixels [s+off-1, e+off) when wx > 0 and
// [s+off, e+off) when wx == 0.
func (c *Ctx) mergePixelSpans(off int, fractional bool) {
	c.merged = c.merged[:0]
	lead := 0
	if fractional {
		lead = 1
	}
	i0, i1 := 0, 0
	W := c.M.W
	for i0 < len(c.spans0) || i1 < len(c.spans1) {
		var sp rle.Span
		if i1 >= len(c.spans1) || (i0 < len(c.spans0) && c.spans0[i0].Start <= c.spans1[i1].Start) {
			sp = c.spans0[i0]
			i0++
		} else {
			sp = c.spans1[i1]
			i1++
		}
		lo := sp.Start + off - lead
		hi := sp.End + off
		if lo < 0 {
			lo = 0
		}
		if hi > W {
			hi = W
		}
		if lo >= hi {
			continue
		}
		if n := len(c.merged); n > 0 && lo <= c.merged[n-1].Hi {
			if hi > c.merged[n-1].Hi {
				c.merged[n-1].Hi = hi
			}
		} else {
			c.merged = append(c.merged, pixSpan{lo, hi})
		}
	}
}

// compositePixel resamples the four contributing voxels at pixel u and
// blends the sample into the intermediate image, front to back. It returns
// whether the pixel just saturated (so the traced path can report the
// skip-link write). The accumulation is straight-line arithmetic over the
// u8f unpack table; zero voxels and zero weights contribute exact float
// zeros, so no per-corner branches are needed and the result stays
// bit-identical to the guarded reference formulation.
func (c *Ctx) compositePixel(vRow, u, off int, w00, w10, w01, w11 float32, cnt *Counters) bool {
	i0 := u - off
	var v00, v10, v01, v11 classify.Voxel
	if uint(i0) < uint(len(c.row0)) {
		v00 = c.row0[i0]
		v01 = c.row1[i0]
	}
	if i1 := i0 + 1; uint(i1) < uint(len(c.row0)) {
		v10 = c.row0[i1]
		v11 = c.row1[i1]
	}
	// Premultiplied resampling: alpha and alpha-weighted color.
	aa := w00*u8f255[v00>>24] + w10*u8f255[v10>>24] +
		w01*u8f255[v01>>24] + w11*u8f255[v11>>24]
	if aa < 1.0/512 {
		cnt.EmptyPixels++
		cnt.Cycles += CyclesPerEmptyPixel
		return false
	}
	// View-dependent opacity correction (identity when disabled). The
	// premultiplied colors scale by the same factor so hue is preserved.
	scale := float32(1)
	if c.alphaLUT != nil {
		corrected := c.correctAlpha(aa)
		scale = corrected / aa
		aa = corrected
	}
	a0 := w00 * u8f[v00>>24] * (1.0 / 255)
	a1 := w10 * u8f[v10>>24] * (1.0 / 255)
	a2 := w01 * u8f[v01>>24] * (1.0 / 255)
	a3 := w11 * u8f[v11>>24] * (1.0 / 255)
	ar := a0*u8f[(v00>>16)&0xff] + a1*u8f[(v10>>16)&0xff] + a2*u8f[(v01>>16)&0xff] + a3*u8f[(v11>>16)&0xff]
	ag := a0*u8f[(v00>>8)&0xff] + a1*u8f[(v10>>8)&0xff] + a2*u8f[(v01>>8)&0xff] + a3*u8f[(v11>>8)&0xff]
	ab := a0*u8f[v00&0xff] + a1*u8f[v10&0xff] + a2*u8f[v01&0xff] + a3*u8f[v11&0xff]

	M := c.M
	p := 4 * (vRow*M.W + u)
	t := scale * (1 - M.Pix[p+3])
	M.Pix[p] += t * ar * (1.0 / 255)
	M.Pix[p+1] += t * ag * (1.0 / 255)
	M.Pix[p+2] += t * ab * (1.0 / 255)
	M.Pix[p+3] += (1 - M.Pix[p+3]) * aa
	cnt.Samples++
	cnt.Cycles += CyclesPerSample
	if M.Pix[p+3] >= img.OpacityThreshold {
		M.MarkOpaque(u, vRow)
		return true
	}
	return false
}

func alphaOf(v classify.Voxel) float32 {
	return u8f[v>>24] * (1.0 / 255)
}
