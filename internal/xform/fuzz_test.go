package xform

import (
	"math"
	"testing"
)

// FuzzFactorizationInvariant checks the shear-warp factorization on
// arbitrary views and volume shapes: the decomposition must satisfy
// M = Warp ∘ Shear — a voxel sheared onto the intermediate image and then
// warped must land exactly where the full view transform (plus the
// final-image normalization) puts it — with unit-bounded shear
// coefficients, a front-to-back slice order consistent with the ray
// direction, and intermediate/final rasters that contain every voxel's
// footprint.
func FuzzFactorizationInvariant(f *testing.F) {
	f.Add(0.0, 0.0, uint8(64), uint8(64), uint8(64))
	f.Add(0.5, 0.25, uint8(64), uint8(32), uint8(16))   // generic view, anisotropic volume
	f.Add(math.Pi/4, 0.0, uint8(8), uint8(8), uint8(8)) // axis-tie yaw
	f.Add(1.4, -0.2, uint8(3), uint8(63), uint8(2))     // x principal axis
	f.Add(0.1, 1.5, uint8(16), uint8(2), uint8(16))     // y principal axis (steep pitch)
	f.Add(-2.8, 3.0, uint8(5), uint8(7), uint8(11))     // behind the volume
	f.Fuzz(func(t *testing.T, yaw, pitch float64, bx, by, bz uint8) {
		if math.IsNaN(yaw) || math.IsInf(yaw, 0) || math.IsNaN(pitch) || math.IsInf(pitch, 0) {
			t.Skip()
		}
		// Enormous angles lose all precision in sin/cos reduction without
		// exercising anything new; one revolution covers every view.
		if math.Abs(yaw) > 16 || math.Abs(pitch) > 16 {
			t.Skip()
		}
		nx, ny, nz := 2+int(bx)%63, 2+int(by)%63, 2+int(bz)%63
		view := ViewMatrix(nx, ny, nz, yaw, pitch)
		fac := Factorize(nx, ny, nz, view)

		// Shear coefficients: picking the most-parallel principal axis
		// bounds both slopes by 1 (Lacroute). Allow float slack only.
		const eps = 1e-9
		if math.Abs(fac.Si) > 1+eps || math.Abs(fac.Sj) > 1+eps {
			t.Fatalf("shear exceeds unit slope: Si=%v Sj=%v", fac.Si, fac.Sj)
		}
		if fac.Tu < 0 || fac.Tv < 0 {
			t.Fatalf("negative intermediate translation: Tu=%v Tv=%v", fac.Tu, fac.Tv)
		}

		// Permuted dimensions and traversal order.
		ni, nj, nk := PermutedDims(fac.Axis, nx, ny, nz)
		if fac.Ni != ni || fac.Nj != nj || fac.Nk != nk {
			t.Fatalf("permuted dims (%d,%d,%d), want (%d,%d,%d)", fac.Ni, fac.Nj, fac.Nk, ni, nj, nk)
		}
		switch fac.KStep {
		case 1:
			if fac.KFront != 0 {
				t.Fatalf("KStep 1 with KFront %d", fac.KFront)
			}
		case -1:
			if fac.KFront != nk-1 {
				t.Fatalf("KStep -1 with KFront %d, want %d", fac.KFront, nk-1)
			}
		default:
			t.Fatalf("KStep %d, want ±1", fac.KStep)
		}

		// Factorization correctness, checked at the volume's corner voxels
		// and center: shear + warp must equal view + final offset.
		ox, oy := fac.FinalOffset()
		scale := 1.0 + math.Max(math.Max(float64(nx), float64(ny)), float64(nz))
		tol := 1e-9 * scale
		pts := [][3]float64{
			{0, 0, 0}, {float64(ni - 1), 0, 0}, {0, float64(nj - 1), 0}, {0, 0, float64(nk - 1)},
			{float64(ni - 1), float64(nj - 1), 0}, {float64(ni - 1), 0, float64(nk - 1)},
			{0, float64(nj - 1), float64(nk - 1)}, {float64(ni - 1), float64(nj - 1), float64(nk - 1)},
			{float64(ni-1) / 2, float64(nj-1) / 2, float64(nk-1) / 2},
		}
		for _, p := range pts {
			u, v := fac.IntermediateCoords(p[0], p[1], p[2])
			if u < -eps || v < -eps || u > float64(fac.IntW-1)+eps || v > float64(fac.IntH-1)+eps {
				t.Fatalf("voxel %v shears to (%v, %v) outside intermediate %dx%d", p, u, v, fac.IntW, fac.IntH)
			}
			wx, wy := fac.Warp.Apply(u, v)
			x, y, z := fac.ObjectCoords(p[0], p[1], p[2])
			vx, vy, _ := view.Apply(x, y, z)
			if math.Abs(wx-(vx+ox)) > tol || math.Abs(wy-(vy+oy)) > tol {
				t.Fatalf("voxel %v: warp(shear) = (%v, %v), view+offset = (%v, %v)",
					p, wx, wy, vx+ox, vy+oy)
			}
			if wx < -1-eps || wy < -1-eps || wx > float64(fac.FinalW)+eps || wy > float64(fac.FinalH)+eps {
				t.Fatalf("voxel %v warps to (%v, %v) outside final %dx%d", p, wx, wy, fac.FinalW, fac.FinalH)
			}

			// WarpInv must invert Warp at this point.
			iu, iv := fac.WarpInv.Apply(wx, wy)
			if math.Abs(iu-u) > tol || math.Abs(iv-v) > tol {
				t.Fatalf("WarpInv(Warp(%v, %v)) = (%v, %v)", u, v, iu, iv)
			}

			// PermutedCoords must invert ObjectCoords.
			pi, pj, pk := fac.PermutedCoords(x, y, z)
			if pi != p[0] || pj != p[1] || pk != p[2] {
				t.Fatalf("PermutedCoords(ObjectCoords(%v)) = (%v, %v, %v)", p, pi, pj, pk)
			}
		}

		// Slice shifts are consistent with per-voxel shearing.
		for _, k := range []int{0, nk / 2, nk - 1} {
			tu, tv := fac.SliceShift(k)
			u, v := fac.IntermediateCoords(0, 0, float64(k))
			if math.Abs(tu-u) > eps || math.Abs(tv-v) > eps {
				t.Fatalf("SliceShift(%d) = (%v, %v), IntermediateCoords gives (%v, %v)", k, tu, tv, u, v)
			}
		}
	})
}
