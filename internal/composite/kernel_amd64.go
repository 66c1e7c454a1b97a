//go:build !race

package composite

import (
	"unsafe"

	"shearwarp/internal/classify"
	"shearwarp/internal/rendermode"
)

// kernelArgs is compositeLiveAVX2's argument block, kept in the Ctx:
// kernelRow sets the fields that hold for a whole scanline, compositeLive
// the per-visit ones. The routine reads it, writes the three results back,
// and keeps no reference to it.
type kernelArgs struct {
	// Per scanline.
	pix   *float32        // the row's first pixel
	vox   *classify.Voxel // V.Vox, for in-place tap sources
	lane0 *classify.Voxel // c.vlane0, c.vlane1, c.zvlane
	lane1 *classify.Voxel
	zero  *classify.Voxel
	lut   *float32 // c.alphaLUT, nil when correction is off or in MIP
	mip   bool

	// Per slice visit.
	live  *liveIv // c.live
	nlive int
	sat   *int32 // where the first saturated pixel is appended
	w     [4]float32

	nsat    int // results: pixels appended at sat,
	samples int64
	empty   int64
}

// compositeLiveAVX2 is compositeLiveRef over all of a.live, eight pixels at
// a time with AVX2 (see kernel_amd64.s).
//
//go:noescape
func compositeLiveAVX2(a *kernelArgs)

// useAVX2 is whether this CPU runs compositeLiveAVX2, decided once per
// process: without AVX2 compositeLive falls back to compositeLiveRef.
var useAVX2 = haveAVX2()

// haveAVX2 reports AVX2 and POPCNT in CPUID, and the XMM and YMM register
// state enabled by the OS in XCR0 (OSXSAVE set), which a hypervisor may
// withhold while CPUID still lists AVX2.
func haveAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx, popcnt = 1 << 27, 1 << 28, 1 << 23
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(osxsave|avx|popcnt) != osxsave|avx|popcnt {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// cpuid executes CPUID with leaf eaxArg and sub-leaf ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0). Call it only when
// CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// kernelRow points the kernel's argument block at row vRow of the bound
// frame, with the frame's tap sources, correction table and blend op. Call
// it once per scanline, before the row's first compositeLive.
func (c *Ctx) kernelRow(vRow int) {
	M := c.M
	a := &c.kargs
	a.pix = unsafe.SliceData(M.Pix[4*vRow*M.W:])
	a.vox = unsafe.SliceData(c.V.Vox)
	a.lane0 = unsafe.SliceData(c.vlane0)
	a.lane1 = unsafe.SliceData(c.vlane1)
	a.zero = unsafe.SliceData(c.zvlane)
	a.mip = c.Mode == rendermode.MIP
	a.lut = nil
	if c.alphaLUT != nil && !a.mip {
		a.lut = &c.alphaLUT[0]
	}
}

// compositeLive runs the pixel kernel over the slice's live pieces of row
// vRow (the row kernelRow last set): on amd64 with AVX2 the assembly
// kernel, bit-identical to compositeLiveRef in pixels, counters and the
// order of c.sat; without AVX2 the reference itself.
func (c *Ctx) compositeLive(vRow int, g *sliceGeom, cnt *Counters) {
	if !useAVX2 {
		c.compositeLiveRef(vRow, g, cnt)
		return
	}
	a := &c.kargs
	a.live = unsafe.SliceData(c.live)
	a.nlive = len(c.live)
	a.sat = unsafe.SliceData(c.sat[len(c.sat):])
	a.w = [4]float32{g.w00, g.w10, g.w01, g.w11}
	compositeLiveAVX2(a)
	c.sat = c.sat[:len(c.sat)+a.nsat]
	cnt.Samples += a.samples
	cnt.EmptyPixels += a.empty
	cnt.Cycles += a.samples*CyclesPerSample + a.empty*CyclesPerEmptyPixel
}
