//go:build !race

package composite

import (
	"unsafe"

	"shearwarp/internal/classify"
	"shearwarp/internal/rendermode"
)

// kernelArgs is compositeLiveSSE's argument block. The caller builds it on
// its stack; the routine reads it, writes the three results back, and keeps
// no reference to it.
type kernelArgs struct {
	pix   *float32        // the row's first pixel
	vox   *classify.Voxel // V.Vox, for in-place tap sources
	lane0 *classify.Voxel // c.vlane0, c.vlane1, c.zvlane
	lane1 *classify.Voxel
	zero  *classify.Voxel
	live  *liveIv // c.live
	nlive int
	lut   *float32 // c.alphaLUT, nil when correction is off or in MIP
	sat   *int32   // where the first saturated pixel is appended
	w     [4]float32
	mip   bool

	nsat    int // results: pixels appended at sat,
	samples int64
	empty   int64
}

// compositeLiveSSE is compositeLiveRef over all of a.live, four pixels at
// a time with SSE2 (see kernel_amd64.s).
//
//go:noescape
func compositeLiveSSE(a *kernelArgs)

// compositeLive runs the pixel kernel over the slice's live pieces: on
// amd64 the SSE2 kernel, bit-identical to compositeLiveRef in pixels,
// counters and the order of c.sat.
func (c *Ctx) compositeLive(vRow int, g *sliceGeom, cnt *Counters) {
	M := c.M
	a := kernelArgs{
		pix:   &M.Pix[4*vRow*M.W],
		vox:   unsafe.SliceData(c.V.Vox),
		lane0: &c.vlane0[0],
		lane1: &c.vlane1[0],
		zero:  &c.zvlane[0],
		live:  unsafe.SliceData(c.live),
		nlive: len(c.live),
		sat:   unsafe.SliceData(c.sat[len(c.sat):]),
		w:     [4]float32{g.w00, g.w10, g.w01, g.w11},
		mip:   c.Mode == rendermode.MIP,
	}
	if c.alphaLUT != nil && !a.mip {
		a.lut = &c.alphaLUT[0]
	}
	compositeLiveSSE(&a)
	c.sat = c.sat[:len(c.sat)+a.nsat]
	cnt.Samples += a.samples
	cnt.EmptyPixels += a.empty
	cnt.Cycles += a.samples*CyclesPerSample + a.empty*CyclesPerEmptyPixel
}
