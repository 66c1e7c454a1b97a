//go:build !race

package warp

import "unsafe"

// warpArgs is warpRowSSE's argument block. The caller builds it on its
// stack; the routine advances it and keeps no reference to it.
type warpArgs struct {
	pix    *float32 // M.Pix
	out    *uint8   // the next output pixel
	n      int      // output pixels left, from out on
	u, v   float64  // the next pixel's intermediate coordinates
	du, dv float64  // their step per pixel
	w, h   int      // M.W, M.H
	w1, h1 int      // M.W-1, M.H-1

	pixels, background int64 // running counts
}

// warpRowSSE is warpRowRef over the interior and background pixels of
// a.out[:4*a.n], one pixel per iteration with SSE2 (see warp_amd64.s). It
// stops at the first border pixel — one whose bilinear taps straddle the
// intermediate image's edge — leaving out, n, u and v at that pixel, or
// with n = 0 at the end of the row.
//
//go:noescape
func warpRowSSE(a *warpArgs)

// warpRow warps one row span's output pixels: on amd64 the SSE2 warp, with
// the border pixels it stops at handed to warpRowRef one at a time, so
// pixels and counts are warpRowRef's.
func (c *Ctx) warpRow(outRow []uint8, u, v float64) (pixels, background int64) {
	M := c.M
	a := warpArgs{
		pix: unsafe.SliceData(M.Pix),
		u:   u, v: v, du: c.F.WarpInv[0], dv: c.F.WarpInv[3],
		w: M.W, h: M.H, w1: M.W - 1, h1: M.H - 1,
	}
	for len(outRow) >= 4 {
		a.out, a.n = &outRow[0], len(outRow)/4
		warpRowSSE(&a)
		if a.n == 0 {
			break
		}
		outRow = outRow[len(outRow)-4*a.n:]
		p, b := c.warpRowRef(outRow[:4], a.u, a.v)
		a.pixels += p
		a.background += b
		outRow = outRow[4:]
		a.u += a.du
		a.v += a.dv
	}
	return a.pixels, a.background
}
