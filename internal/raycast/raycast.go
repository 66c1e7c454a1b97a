// Package raycast implements the image-order volume rendering baseline the
// paper compares against (Levoy-style ray casting; its Nieh & Levoy
// parallel decomposition runs on the simulator as simrun.RunRayCast): one
// orthographic ray per final-image pixel, marched through the classified
// volume at unit spacing with trilinear resampling, min-max octree space
// leaping and early ray termination.
//
// Its cycle accounting separates "looping time" (octree traversal,
// addressing, stepping) from resampling/compositing work, reproducing the
// Figure 2 comparison: the ray caster performs a nearly identical number of
// compositing operations as the shear warper but spends far more time
// looping, and its memory reference pattern has poor spatial locality
// because ray order differs from storage order.
package raycast

import (
	"math"

	"shearwarp/internal/classify"
	"shearwarp/internal/img"
	"shearwarp/internal/octree"
	"shearwarp/internal/rendermode"
	"shearwarp/internal/xform"
)

// Cost model (cycles). Per-sample looping costs exceed the shear-warper's
// per-sample overhead because every sample addresses 8 voxels through
// 3-D indexing and consults the octree.
const (
	CyclesPerStep      = 9  // advance the ray, bounds test, address arithmetic
	CyclesPerDescend   = 7  // one octree level test during a leap query
	CyclesPerLeap      = 12 // computing the exit point of an empty cell
	CyclesPerAddress   = 24 // addressing the 8 voxels of a sample through 3-D indexing
	CyclesPerResample  = 22 // trilinear weights + gather arithmetic
	CyclesPerComposite = 10 // blend + opacity test
	CyclesPerRaySetup  = 40 // ray-volume intersection, increments
)

// Counters aggregates ray-casting work. Looping time is everything except
// resampling and compositing.
type Counters struct {
	Cycles     int64
	Rays       int64
	Steps      int64 // ray advance steps (including leapt spans' endpoints)
	Descends   int64 // octree level tests
	Leaps      int64 // empty-space leaps taken
	Resamples  int64 // trilinear samples taken
	Composites int64 // samples blended (non-transparent)
}

// Add accumulates other into c.
func (c *Counters) Add(o Counters) {
	c.Cycles += o.Cycles
	c.Rays += o.Rays
	c.Steps += o.Steps
	c.Descends += o.Descends
	c.Leaps += o.Leaps
	c.Resamples += o.Resamples
	c.Composites += o.Composites
}

// CompositeCycles returns the cycles spent resampling and blending.
func (c *Counters) CompositeCycles() int64 {
	return c.Resamples*CyclesPerResample + c.Composites*CyclesPerComposite
}

// LoopingCycles returns the cycles spent on control overhead, addressing
// and coherence-structure traversal.
func (c *Counters) LoopingCycles() int64 { return c.Cycles - c.CompositeCycles() }

// Renderer casts rays through a classified volume.
type Renderer struct {
	C    *classify.Classified
	Tree *octree.Tree
	// Mode selects the per-ray accumulation rule: Composite (the zero
	// value) over-blends front to back with early ray termination, MIP
	// keeps the per-channel maximum of the premultiplied samples with no
	// early termination (a later sample can always be brighter). The
	// isosurface mode is classification-time — render an iso-classified
	// volume with Mode Composite (the binary opacities make the over-blend
	// a first-surface projection), exactly as the shear-warp path does.
	Mode rendermode.Mode
}

// New builds the ray caster (and its octree) for a classified volume.
func New(c *classify.Classified) *Renderer {
	return &Renderer{C: c, Tree: octree.Build(c)}
}

// Render casts one ray per final-image pixel for the given view. The
// factorization is used only for its view matrix and final-image raster, so
// the output is directly comparable with the shear-warp renderers'.
func (r *Renderer) Render(f *xform.Factorization, cnt *Counters) *img.Final {
	out := img.NewFinal(f.FinalW, f.FinalH)
	r.RenderTile(f, out, 0, 0, out.W, out.H, cnt)
	return out
}

// RenderTile casts the rays of one final-image rectangle — the parallel
// unit of work (Nieh & Levoy partition the image into tiles).
func (r *Renderer) RenderTile(f *xform.Factorization, out *img.Final, x0, y0, x1, y1 int, cnt *Counters) {
	inv := f.View.Invert()
	ox, oy := f.FinalOffset()
	// Ray direction: the object-space pre-image of +z in view space.
	dx, dy, dz := inv.ApplyDir(0, 0, 1)
	dn := math.Sqrt(dx*dx + dy*dy + dz*dz)
	dx, dy, dz = dx/dn, dy/dn, dz/dn
	for y := max(y0, 0); y < min(y1, out.H); y++ {
		for x := max(x0, 0); x < min(x1, out.W); x++ {
			r.castRay(&inv, out, x, y, ox, oy, dx, dy, dz, cnt)
		}
	}
}

func (r *Renderer) castRay(inv *xform.Mat4, out *img.Final, px, py int, ox, oy, dx, dy, dz float64, cnt *Counters) {
	cnt.Rays++
	cnt.Cycles += CyclesPerRaySetup

	// A point on the ray: the pre-image of the pixel at view depth 0.
	x0, y0, z0 := inv.Apply(float64(px)-ox, float64(py)-oy, 0)

	// Clip the ray against the volume slab [0, N-1] in each dimension.
	tmin, tmax := math.Inf(-1), math.Inf(1)
	clip := func(o, d float64, n int) bool {
		if math.Abs(d) < 1e-12 {
			return o >= 0 && o <= float64(n-1)
		}
		t0 := (0 - o) / d
		t1 := (float64(n-1) - o) / d
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		tmin = math.Max(tmin, t0)
		tmax = math.Min(tmax, t1)
		return true
	}
	c := r.C
	if !clip(x0, dx, c.Nx) || !clip(y0, dy, c.Ny) || !clip(z0, dz, c.Nz) || tmin > tmax {
		out.SetRGB(px, py, 0, 0, 0)
		return
	}

	mip := r.Mode == rendermode.MIP
	var accR, accG, accB, accA float32
	for t := tmin; t <= tmax; t += 1.0 {
		cnt.Steps++
		cnt.Cycles += CyclesPerStep
		sx, sy, sz := x0+t*dx, y0+t*dy, z0+t*dz
		ix, iy, iz := int(sx), int(sy), int(sz)

		// Octree space leap: hop over the largest empty enclosing cell.
		lv := 0
		for lv < r.Tree.Height() {
			empty, lox, loy, loz, hix, hiy, hiz := r.Tree.EmptyAt(lv, ix, iy, iz)
			cnt.Descends++
			cnt.Cycles += CyclesPerDescend
			if !empty {
				break
			}
			if lv == r.Tree.Height()-1 || !emptyAtNext(r.Tree, lv+1, ix, iy, iz) {
				// Leap to the exit of this empty cell.
				exit := cellExit(sx, sy, sz, dx, dy, dz, lox, loy, loz, hix, hiy, hiz)
				if exit > 0 {
					t += exit // the loop adds the regular 1.0 step too
					cnt.Leaps++
					cnt.Cycles += CyclesPerLeap
				}
				lv = -1
				break
			}
			lv++
		}
		if lv == -1 {
			continue
		}

		// Resample: trilinear over the classified voxels. Addressing the
		// eight voxels through 3-D indexing is looping overhead in the
		// paper's accounting; only the interpolation arithmetic and the
		// blend count as compositing work.
		a, cr, cg, cb := r.sampleRGBA(sx, sy, sz)
		cnt.Resamples++
		cnt.Cycles += CyclesPerAddress + CyclesPerResample
		if a < 1.0/512 {
			continue
		}
		if mip {
			// Maximum intensity: keep the brightest premultiplied sample
			// per channel; no early termination — any later sample may
			// still raise the maximum.
			accR = max(accR, cr)
			accG = max(accG, cg)
			accB = max(accB, cb)
			accA = max(accA, a)
			cnt.Composites++
			cnt.Cycles += CyclesPerComposite
			continue
		}
		w := (1 - accA) * a
		accR += w * cr
		accG += w * cg
		accB += w * cb
		accA += w
		cnt.Composites++
		cnt.Cycles += CyclesPerComposite
		if accA >= img.OpacityThreshold {
			break // early ray termination
		}
	}
	out.SetRGB(px, py, quant(accR), quant(accG), quant(accB))
}

// emptyAtNext is a helper for the leap loop: whether the next-coarser cell
// is also empty.
func emptyAtNext(t *octree.Tree, lv, x, y, z int) bool {
	empty, _, _, _, _, _, _ := t.EmptyAt(lv, x, y, z)
	return empty
}

// cellExit returns the ray parameter advance needed to exit the cell
// [lo, hi) from position s along direction d (both in voxel units).
func cellExit(sx, sy, sz, dx, dy, dz float64, lox, loy, loz, hix, hiy, hiz int) float64 {
	exit := math.Inf(1)
	axis := func(s, d float64, lo, hi int) float64 {
		if d > 1e-12 {
			return (float64(hi) - s) / d
		}
		if d < -1e-12 {
			return (float64(lo) - 1e-9 - s) / d
		}
		return math.Inf(1)
	}
	exit = math.Min(exit, axis(sx, dx, lox, hix))
	exit = math.Min(exit, axis(sy, dy, loy, hiy))
	exit = math.Min(exit, axis(sz, dz, loz, hiz))
	if math.IsInf(exit, 1) || exit < 0 {
		return 0
	}
	return exit
}

// sampleRGBA trilinearly resamples the classified volume's premultiplied
// color and opacity at a continuous position.
func (r *Renderer) sampleRGBA(x, y, z float64) (a, cr, cg, cb float32) {
	c := r.C
	x0, y0, z0 := int(math.Floor(x)), int(math.Floor(y)), int(math.Floor(z))
	fx, fy, fz := float32(x-float64(x0)), float32(y-float64(y0)), float32(z-float64(z0))
	for dz := 0; dz < 2; dz++ {
		wz := fz
		if dz == 0 {
			wz = 1 - fz
		}
		if wz == 0 {
			continue
		}
		for dy := 0; dy < 2; dy++ {
			wy := fy
			if dy == 0 {
				wy = 1 - fy
			}
			w2 := wz * wy
			if w2 == 0 {
				continue
			}
			for dx := 0; dx < 2; dx++ {
				wx := fx
				if dx == 0 {
					wx = 1 - fx
				}
				w := w2 * wx
				if w == 0 {
					continue
				}
				v := c.At(x0+dx, y0+dy, z0+dz)
				if v == 0 || classify.Opacity(v) < c.MinOpacity {
					continue
				}
				va := w * float32(v>>24) * (1.0 / 255)
				a += va
				cr += va * float32((v>>16)&0xff) * (1.0 / 255)
				cg += va * float32((v>>8)&0xff) * (1.0 / 255)
				cb += va * float32(v&0xff) * (1.0 / 255)
			}
		}
	}
	return
}

func quant(x float32) uint8 {
	v := int32(x*255 + 0.5)
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}
