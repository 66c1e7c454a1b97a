package composite

import (
	"shearwarp/internal/img"
	"shearwarp/internal/rendermode"
)

// compositeLiveRef is the Go pixel kernel — what the untraced path runs off
// amd64 and under -race, and the reference the SSE kernel (kernel_amd64.s)
// is held to bit for bit: the exact float32 arithmetic of compositePixel per
// pixel — same unpack tables, same grouping, same order — over the
// precollected live pieces, reading each piece's four bilinear taps from its
// tap sources with no bounds or validity branches: a tap outside the line's
// valid-tap window is masked to the exact zero the reference reads there
// (see outside).
//
// One loop serves both blend ops. Composite (and isosurface) over-blends
// front to back, with the opacity-correction LUT when enabled, and collects
// the pixels that saturate in c.sat in ascending order. MIP keeps the
// per-channel maximum of the premultiplied samples instead: float max is
// exactly order-independent, and every intermediate scanline is still owned
// front-to-back by one worker, so serial, old-parallel and new-parallel MIP
// frames are byte-identical — the invariant FuzzMIPOrderInvariance pins. No
// MIP pixel ever saturates, so the active list never shrinks and early ray
// termination is structurally off. MIP ignores the LUT: a maximum over a
// ray's samples does not depend on their spacing (DESIGN.md section 14).
func (c *Ctx) compositeLiveRef(vRow int, g *sliceGeom, cnt *Counters) {
	M := c.M
	rowBase := vRow * M.W
	pix := M.Pix[4*rowBase : 4*(rowBase+M.W)]
	vox := c.V.Vox
	w00, w10, w01, w11 := g.w00, g.w10, g.w01, g.w11
	mip := c.Mode == rendermode.MIP
	lut := c.alphaLUT
	if mip {
		lut = nil
	}
	var samples, empty int64
	for _, iv := range c.live {
		n := int(iv.Hi - iv.Lo)
		t0 := laneSel(iv.B0, vox, c.vlane0, c.zvlane)[:n+1]
		t1 := laneSel(iv.B1, vox, c.vlane1, c.zvlane)
		t1 = t1[:len(t0)] // teach the compiler the lanes are the same length
		lo := int(iv.Lo)
		a0, l0 := int(iv.A0), int(iv.E0)-1
		a1, l1 := int(iv.A1), int(iv.E1)-1
		v00 := t0[0] &^ outside(0, a0, l0)
		v01 := t1[0] &^ outside(0, a1, l1)
		for j := 1; j < len(t0); j++ {
			v10 := t0[j] &^ outside(j, a0, l0)
			v11 := t1[j] &^ outside(j, a1, l1)
			aa := w00*u8f255[v00>>24] + w10*u8f255[v10>>24] +
				w01*u8f255[v01>>24] + w11*u8f255[v11>>24]
			if aa < 1.0/512 {
				empty++
				v00, v01 = v10, v11
				continue
			}
			scale := float32(1)
			if lut != nil {
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

			u := lo + j - 1
			px := pix[4*u : 4*u+4 : 4*u+4]
			samples++
			v00, v01 = v10, v11
			if mip {
				px[0] = max(px[0], ar*(1.0/255))
				px[1] = max(px[1], ag*(1.0/255))
				px[2] = max(px[2], ab*(1.0/255))
				px[3] = max(px[3], aa)
				continue
			}
			t := scale * (1 - px[3])
			px[0] += t * ar * (1.0 / 255)
			px[1] += t * ag * (1.0 / 255)
			px[2] += t * ab * (1.0 / 255)
			px[3] += (1 - px[3]) * aa
			if px[3] >= img.OpacityThreshold {
				c.sat = append(c.sat, int32(u))
			}
		}
	}
	cnt.Samples += samples
	cnt.EmptyPixels += empty
	cnt.Cycles += samples*CyclesPerSample + empty*CyclesPerEmptyPixel
}
