// Package warp implements the 2-D warp phase of the shear-warp algorithm:
// an affine inverse-mapped bilinear resampling of the intermediate image
// into the final image.
//
// Two parallel decompositions are supported, matching the paper:
//
//   - WarpTile renders an arbitrary rectangle of the final image — the
//     old algorithm's unit of work (round-robin square tiles).
//   - RowSpan computes, for one final-image row, the pixel interval whose
//     inverse-mapped v coordinate falls inside a band of intermediate
//     scanlines — the new algorithm's unit of work, where each processor
//     warps exactly the final pixels fed by its own compositing partition.
//
// Band ownership partitions the v axis over (-inf, +inf), so every final
// pixel (including background) is written by exactly one processor and no
// synchronization is needed on the final image.
package warp

import (
	"math"

	"shearwarp/internal/img"
	"shearwarp/internal/trace"
	"shearwarp/internal/xform"
)

// Cost model (cycles, Pixie analog): the warp is cheap per pixel relative
// to compositing, as in the paper ("There is little computation in the
// warp phase").
const (
	CyclesPerPixel      = 11 // inverse map step + bilinear of 4 pixels + store
	CyclesPerBackground = 2  // inverse map step + bounds reject + store
	CyclesPerRowSetup   = 9  // per row-span setup of the incremental mapping
)

// Counters aggregates warp work.
type Counters struct {
	Cycles     int64
	Pixels     int64 // interior pixels bilinearly resampled
	Background int64 // pixels outside the intermediate image
	Rows       int64 // row spans processed
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Cycles += other.Cycles
	c.Pixels += other.Pixels
	c.Background += other.Background
	c.Rows += other.Rows
}

// Arrays holds trace handles for the warp's shared arrays.
type Arrays struct {
	IntPix   trace.Array // intermediate image pixels, elem 16 bytes
	FinalPix trace.Array // final image pixels, elem 4 bytes
}

// RegisterFinal registers the final image in an address space. The
// intermediate handle is shared with the compositing kernel.
func RegisterFinal(s *trace.AddrSpace, out *img.Final) trace.Array {
	return s.Register("final.Pix", 4, out.W*out.H)
}

// Ctx carries one processor's warp state.
type Ctx struct {
	F      *xform.Factorization
	M      *img.Intermediate
	Out    *img.Final
	Tracer trace.Tracer
	Arrays Arrays
}

// NewCtx builds a warp context.
func NewCtx(f *xform.Factorization, m *img.Intermediate, out *img.Final) *Ctx {
	return &Ctx{F: f, M: m, Out: out}
}

// Scratch is empty and exists only so the frozen bench/layers.go compiles;
// it goes in the next [benchmark] PR.
type Scratch struct{}

// WarpSpan warps final-image row y for x in [x0, x1). Native frames
// (Tracer == nil) take a branch-free fast path; simulated frames take the
// traced path, which additionally records the memory references. Both paths
// produce bit-identical pixels: the fast path drops only zero-weight
// contributions (identity adds on the non-negative accumulators) and keeps
// the same evaluation order.
func (c *Ctx) WarpSpan(y, x0, x1 int, cnt *Counters) {
	if x0 < 0 {
		x0 = 0
	}
	if x1 > c.Out.W {
		x1 = c.Out.W
	}
	if x0 >= x1 {
		return
	}
	cnt.Rows++
	cnt.Cycles += CyclesPerRowSetup
	if c.Tracer == nil {
		c.warpSpanUntraced(y, x0, x1, cnt)
		return
	}
	c.warpSpanTraced(y, x0, x1, cnt)
}

// warpSpanUntraced is the native fast path: no tracer checks, no extent
// tracking, and a branch-free 4-tap bilinear gather for interior pixels —
// warpRow, which on amd64 is the SSE2 warp (warp_amd64.s).
func (c *Ctx) warpSpanUntraced(y, x0, x1 int, cnt *Counters) {
	inv := &c.F.WarpInv
	u := inv[0]*float64(x0) + inv[1]*float64(y) + inv[2]
	v := inv[3]*float64(x0) + inv[4]*float64(y) + inv[5]
	outBase := y * c.Out.W
	pixels, background := c.warpRow(c.Out.Pix[4*(outBase+x0):4*(outBase+x1)], u, v)
	cnt.Pixels += pixels
	cnt.Background += background
	cnt.Cycles += pixels*CyclesPerPixel + background*CyclesPerBackground
}

// warpRowRef is the Go warp kernel — what the untraced path runs off amd64
// and under -race, and the reference the SSE2 warp is held to byte for byte.
// It warps the output pixels of outRow (four bytes each, alpha untouched),
// the first at intermediate coordinates (u, v), and returns how many were
// resampled (interior and border) and how many background pixels.
func (c *Ctx) warpRowRef(outRow []uint8, u, v float64) (pixels, background int64) {
	M := c.M
	W, H := M.W, M.H
	pix := M.Pix
	du, dv := c.F.WarpInv[0], c.F.WarpInv[3]
	// Incremental mapping along the row: (u, v) advances by (du, dv) per
	// pixel. Advancing the output window by 4 each pixel lets the compiler
	// prove the three channel stores in bounds from the loop condition
	// alone.
	for ; len(outRow) >= 4; outRow, u, v = outRow[4:], u+du, v+dv {
		u0 := int(math.Floor(u))
		v0 := int(math.Floor(v))
		if u0 < -1 || v0 < -1 || u0 >= W || v0 >= H {
			outRow[0] = 0
			outRow[1] = 0
			outRow[2] = 0
			background++
			continue
		}
		fu := float32(u - float64(u0))
		fv := float32(v - float64(v0))
		w00 := (1 - fu) * (1 - fv)
		w10 := fu * (1 - fv)
		w01 := (1 - fu) * fv
		w11 := fu * fv
		var r, g, b float32
		if u0 >= 0 && v0 >= 0 && u0+1 < W && v0+1 < H {
			// Slice the two tap rows once; the eight channel reads below
			// then index constants into fixed-length views, so the inner
			// resample runs without per-element bounds checks.
			p := 4 * (v0*W + u0)
			q := p + 4*W
			t0 := pix[p : p+8 : p+8]
			t1 := pix[q : q+8 : q+8]
			r = w00*t0[0] + w10*t0[4] + w01*t1[0] + w11*t1[4]
			g = w00*t0[1] + w10*t0[5] + w01*t1[1] + w11*t1[5]
			b = w00*t0[2] + w10*t0[6] + w01*t1[2] + w11*t1[6]
		} else {
			r, g, b = c.gatherClamped(u0, v0, w00, w10, w01, w11)
		}
		outRow[0] = quant255(r)
		outRow[1] = quant255(g)
		outRow[2] = quant255(b)
		pixels++
	}
	return pixels, background
}

// gatherClamped handles the image-border pixels of the fast path, where
// some bilinear taps fall outside the intermediate image.
func (c *Ctx) gatherClamped(u0, v0 int, w00, w10, w01, w11 float32) (r, g, b float32) {
	M := c.M
	tap := func(uu, vv int, w float32) {
		if w == 0 || uu < 0 || vv < 0 || uu >= M.W || vv >= M.H {
			return
		}
		p := 4 * (vv*M.W + uu)
		r += w * M.Pix[p]
		g += w * M.Pix[p+1]
		b += w * M.Pix[p+2]
	}
	tap(u0, v0, w00)
	tap(u0+1, v0, w10)
	tap(u0, v0+1, w01)
	tap(u0+1, v0+1, w11)
	return
}

// warpSpanTraced is the simulator path: identical arithmetic plus extent
// tracking for the batched tracer emissions.
func (c *Ctx) warpSpanTraced(y, x0, x1 int, cnt *Counters) {
	inv := &c.F.WarpInv
	u := inv[0]*float64(x0) + inv[1]*float64(y) + inv[2]
	v := inv[3]*float64(x0) + inv[4]*float64(y) + inv[5]
	M, out := c.M, c.Out
	outBase := y * out.W
	// Track the u and v extents of interior pixels for batched tracing.
	minU, maxU := math.Inf(1), math.Inf(-1)
	minV, maxV := math.Inf(1), math.Inf(-1)
	interior := 0
	for x := x0; x < x1; x, u, v = x+1, u+inv[0], v+inv[3] {
		u0 := int(math.Floor(u))
		v0 := int(math.Floor(v))
		if u0 < -1 || v0 < -1 || u0 >= M.W || v0 >= M.H {
			out.Pix[4*(outBase+x)] = 0
			out.Pix[4*(outBase+x)+1] = 0
			out.Pix[4*(outBase+x)+2] = 0
			cnt.Background++
			cnt.Cycles += CyclesPerBackground
			continue
		}
		fu := float32(u - float64(u0))
		fv := float32(v - float64(v0))
		r, g, b := c.gatherClamped(u0, v0,
			(1-fu)*(1-fv), fu*(1-fv), (1-fu)*fv, fu*fv)
		out.Pix[4*(outBase+x)] = quant255(r)
		out.Pix[4*(outBase+x)+1] = quant255(g)
		out.Pix[4*(outBase+x)+2] = quant255(b)
		cnt.Pixels++
		cnt.Cycles += CyclesPerPixel
		interior++
		minU = math.Min(minU, u)
		maxU = math.Max(maxU, u)
		minV = math.Min(minV, v)
		maxV = math.Max(maxV, v)
	}
	c.Tracer.Write(c.Arrays.FinalPix, outBase+x0, x1-x0)
	if interior > 0 {
		// The interior pixels read the intermediate rows spanned by
		// [minV, maxV+1] over columns [minU, maxU+1].
		uLo := clampInt(int(math.Floor(minU)), 0, M.W-1)
		uHi := clampInt(int(math.Floor(maxU))+1, 0, M.W-1)
		vLo := clampInt(int(math.Floor(minV)), 0, M.H-1)
		vHi := clampInt(int(math.Floor(maxV))+1, 0, M.H-1)
		for vv := vLo; vv <= vHi; vv++ {
			c.Tracer.Read(c.Arrays.IntPix, vv*M.W+uLo, uHi-uLo+1)
		}
	}
}

// WarpTile warps the rectangle [x0, x1) x [y0, y1) of the final image —
// the old algorithm's task.
func (c *Ctx) WarpTile(x0, y0, x1, y1 int, cnt *Counters) {
	if y0 < 0 {
		y0 = 0
	}
	if y1 > c.Out.H {
		y1 = c.Out.H
	}
	for y := y0; y < y1; y++ {
		c.WarpSpan(y, x0, x1, cnt)
	}
}

// Band is a half-open interval [VLo, VHi) of the inverse-mapped v
// coordinate owned by one processor. Use math.Inf for the outermost bands
// so background pixels are covered exactly once.
type Band struct {
	VLo, VHi float64
}

// RowSpan returns the final-image x interval [x0, x1) of row y whose
// inverse-mapped v coordinate falls inside the band. The second return is
// false when the row does not intersect the band.
func (c *Ctx) RowSpan(y int, b Band) (int, int, bool) {
	inv := &c.F.WarpInv
	cv := inv[3] // dv/dx along a row
	d := inv[4]*float64(y) + inv[5]
	if math.Abs(cv) < 1e-12 {
		// v is constant across the row.
		if d >= b.VLo && d < b.VHi {
			return 0, c.Out.W, true
		}
		return 0, 0, false
	}
	// Solve b.VLo <= cv*x + d < b.VHi for x. Adjacent bands share an edge
	// value, and both sides compute the identical ceil((edge-d)/cv), so the
	// integer split is exact: no pixel is covered twice or missed.
	lo := (b.VLo - d) / cv
	hi := (b.VHi - d) / cv
	if cv < 0 {
		lo, hi = hi, lo
	}
	// Clamp infinities (from the outermost bands) before float-to-int
	// conversion, which is undefined for non-finite values.
	lo = math.Max(math.Min(lo, 1e12), -1e12)
	hi = math.Max(math.Min(hi, 1e12), -1e12)
	x0 := int(math.Ceil(lo))
	x1 := int(math.Ceil(hi))
	if x0 < 0 {
		x0 = 0
	}
	if x1 > c.Out.W {
		x1 = c.Out.W
	}
	if x0 >= x1 {
		return 0, 0, false
	}
	return x0, x1, true
}

// edgeGuard keeps every finite band edge this far from an integer v. A
// band's pixels are chosen by RowSpan's closed form, ceil((edge-d)/cv),
// while the span loop steps v incrementally; the two can disagree in the
// last ulps, so a pixel admitted to a band may carry a v just past its edge.
// With an edge on an integer c that pixel's taps reach row c+1 (or c-1), the
// first row of a compositing band the task never waited for — with weight
// zero, so no pixel changes, but it is a read of rows still being written.
// Holding the edges 2^-16 away from the integers (rounding error is below
// 1e-9 for any image that fits in memory) keeps floor(v) of every admitted
// pixel inside the rows the task declared; the pixels within the guard of a
// cut move to the sliver, which already waits for both bands.
const edgeGuard = 1.0 / (1 << 16)

// Task is one unit of the new algorithm's warp phase: a v-axis ownership
// band together with the compositing bands whose completion it depends on.
// The decomposition of TaskBuilder.Partition guarantees:
//
//   - the Bands of all tasks partition (-inf, +inf), so every final pixel
//     (including background) is warped by exactly one processor;
//   - the intermediate rows a task's bilinear reads can touch lie either in
//     compositing bands NeedLo..NeedHi (inclusive) or outside the composited
//     region entirely (where the image is zero and safe to read any time).
//
// Interior tasks depend only on their own band; the scanline-wide boundary
// slivers (one scanline plus edgeGuard on each side) depend on the adjacent
// bands and are assigned to the
// processor with fewer lines — the paper's rule that eliminates final-image
// write sharing and, with per-band completion counters, the global barrier
// between the phases (sections 4.5 and 5.5.2).
type Task struct {
	Band           Band
	Owner          int // processor that warps this task
	NeedLo, NeedHi int // inclusive band-index range to await; NeedLo > NeedHi means none
	Sliver         bool
}

// TaskBuilder builds warp tasks into reusable scratch so per-frame
// partitioning never allocates in the steady state. The returned slice is
// valid until the next Partition call on the same builder.
type TaskBuilder struct {
	tasks []Task
	cuts  []int
	edges []float64
}

// Partition builds the warp tasks for a contiguous compositing partition
// (boundaries[p]..boundaries[p+1] is processor p's band), reusing the
// builder's buffers.
func (tb *TaskBuilder) Partition(boundaries []int) []Task {
	nb := len(boundaries) - 1
	lo, hi := boundaries[0], boundaries[nb]

	// Distinct internal cut values strictly inside the region; cuts at the
	// region edges separate only empty bands and are covered by the outer
	// intervals.
	cuts := tb.cuts[:0]
	for i := 1; i < nb; i++ {
		if b := boundaries[i]; b > lo && b < hi && (len(cuts) == 0 || cuts[len(cuts)-1] != b) {
			cuts = append(cuts, b)
		}
	}
	tb.cuts = cuts

	// Interval edges along the v axis: around each cut c the sliver
	// [c-1, c) gets its own interval, widened by edgeGuard on both sides.
	edges := append(tb.edges[:0], math.Inf(-1))
	for _, c := range cuts {
		if e := float64(c-1) - edgeGuard; e > edges[len(edges)-1] {
			edges = append(edges, e)
		}
		if e := float64(c) + edgeGuard; e > edges[len(edges)-1] {
			edges = append(edges, e)
		}
	}
	edges = append(edges, math.Inf(1))
	tb.edges = edges

	bandSize := func(p int) int { return boundaries[p+1] - boundaries[p] }
	// bandOfRow returns the non-empty band containing a composited row, or
	// -1 for rows outside [lo, hi).
	bandOfRow := func(row int) int {
		if row < lo || row >= hi {
			return -1
		}
		for p := 0; p < nb; p++ {
			if row >= boundaries[p] && row < boundaries[p+1] {
				return p
			}
		}
		return -1
	}

	tasks := tb.tasks[:0]
	for i := 0; i+1 < len(edges); i++ {
		a, b := edges[i], edges[i+1]
		if a >= b {
			continue
		}
		t := Task{Band: Band{VLo: a, VHi: b}}
		// Rows the bilinear reads of v in [a, b) can touch: floor(v) and
		// floor(v)+1, clamped to the composited region. No finite edge is
		// within edgeGuard of an integer, so the same rows hold for a v
		// that strays past an edge by rounding error.
		rowLo, rowHi := lo, hi-1
		if !math.IsInf(a, -1) {
			rowLo = max(rowLo, int(math.Floor(a)))
		}
		if !math.IsInf(b, 1) {
			rowHi = min(rowHi, int(math.Floor(b))+1)
		}
		t.NeedLo, t.NeedHi = 1, 0 // empty
		if rowLo <= rowHi {
			pLo, pHi := bandOfRow(rowLo), bandOfRow(rowHi)
			if pLo >= 0 && pHi >= 0 {
				t.NeedLo, t.NeedHi = pLo, pHi
			}
		}
		switch {
		case t.NeedLo > t.NeedHi:
			t.Owner = 0 // pure background
		case t.NeedLo == t.NeedHi:
			t.Owner = t.NeedLo
		default:
			// Boundary sliver: assign to the adjacent band owner with
			// fewer lines (ties go to the lower).
			t.Sliver = true
			if bandSize(t.NeedLo) <= bandSize(t.NeedHi) {
				t.Owner = t.NeedLo
			} else {
				t.Owner = t.NeedHi
			}
		}
		tasks = append(tasks, t)
	}
	tb.tasks = tasks
	return tasks
}

func quant255(x float32) uint8 {
	v := int32(x*255 + 0.5)
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
