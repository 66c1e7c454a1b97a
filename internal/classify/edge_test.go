package classify

// Edge-case tests for the transfer functions and whole-volume
// classification: the exact breakpoint densities of both transfer
// functions, and the three degenerate volumes a renderer must survive —
// all transparent, fully saturated, and a single non-air voxel.

import (
	"math"
	"testing"

	"shearwarp/internal/vol"
)

// TestMRITransferBreakpoints pins the MRI transfer function at and around
// every breakpoint density (60, 100, 160): opacity must be continuous at
// the region joins, zero strictly below the air threshold, and saturate
// to 1 at density 255.
func TestMRITransferBreakpoints(t *testing.T) {
	cases := []struct {
		name    string
		density uint8
		alpha   float64
	}{
		{"air", 0, 0},
		{"below-threshold", 59, 0},
		{"threshold-exact", 60, 0},           // ramp(60, 60, 100) = 0
		{"soft-tissue-mid", 80, 0.5 * 0.25},  // halfway up the first ramp
		{"join-100", 100, 0.25},              // first ramp tops out where the second starts
		{"bright-mid", 130, 0.25 + 0.5*0.45}, // halfway up the second ramp
		{"join-160", 160, 0.7},               // second ramp tops out where the third starts
		{"saturated", 255, 1.0},              // 0.7 + ramp(255,160,255)*0.3
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			a, r, g, b := MRITransfer(tc.density, 0)
			if math.Abs(a-tc.alpha) > 1e-12 {
				t.Errorf("MRITransfer(%d) alpha = %v, want %v", tc.density, a, tc.alpha)
			}
			// Base color only matters when alpha is nonzero (alpha gates
			// the voxel downstream; at the exact threshold the color is set
			// but the opacity is zero).
			if a > 0 && (r <= 0 || g <= 0 || b <= 0) {
				t.Errorf("MRITransfer(%d): non-transparent voxel with zero color (%v, %v, %v)", tc.density, r, g, b)
			}
		})
	}
	// Continuity at the region joins: approaching a breakpoint from below
	// must meet the value at the breakpoint (no opacity cliff).
	for _, edge := range []float64{100, 160} {
		lo, _, _, _ := MRITransfer(uint8(edge-1), 0)
		hi, _, _, _ := MRITransfer(uint8(edge), 0)
		if math.Abs(hi-lo) > 0.02 {
			t.Errorf("MRI opacity discontinuity at density %v: %v -> %v", edge, lo, hi)
		}
	}
}

// TestCTTransferBreakpoints pins the CT transfer: transparent below the
// bone threshold (120), gradient-weighted above it, saturating at 210.
func TestCTTransferBreakpoints(t *testing.T) {
	for _, d := range []uint8{0, 60, 119, 120} {
		if a, _, _, _ := CTTransfer(d, 100); a != 0 {
			t.Errorf("CTTransfer(%d) alpha = %v, want 0", d, a)
		}
	}
	// Gradient weighting: flat interiors (gradMag 0) get the 0.4 floor,
	// strong surfaces (gradMag >= 40) the full ramp value; in between the
	// weight is monotone.
	aFlat, _, _, _ := CTTransfer(210, 0)
	aMid, _, _, _ := CTTransfer(210, 20)
	aSurf, _, _, _ := CTTransfer(210, 40)
	aOver, _, _, _ := CTTransfer(210, 400)
	if math.Abs(aFlat-0.4) > 1e-12 {
		t.Errorf("flat bone alpha = %v, want 0.4 (gradient floor)", aFlat)
	}
	if !(aFlat < aMid && aMid < aSurf) {
		t.Errorf("gradient weighting not monotone: %v, %v, %v", aFlat, aMid, aSurf)
	}
	if aSurf != 1.0 || aOver != 1.0 {
		t.Errorf("surface bone alpha = %v / %v, want saturation at 1.0", aSurf, aOver)
	}
	// Density ramp tops out at 210: higher densities add nothing.
	a210, _, _, _ := CTTransfer(210, 40)
	a255, _, _, _ := CTTransfer(255, 40)
	if a210 != a255 {
		t.Errorf("CT density ramp not saturated: alpha(210) = %v, alpha(255) = %v", a210, a255)
	}
}

// TestRampEdges pins the shared ramp helper at and outside its interval.
func TestRampEdges(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{-5, 0, 10, 0}, {0, 0, 10, 0}, {5, 0, 10, 0.5}, {10, 0, 10, 1}, {15, 0, 10, 1},
	}
	for _, tc := range cases {
		if got := ramp(tc.x, tc.lo, tc.hi); got != tc.want {
			t.Errorf("ramp(%v, %v, %v) = %v, want %v", tc.x, tc.lo, tc.hi, got, tc.want)
		}
	}
}

// allVoxels classifies a cube filled with one density using both the
// serial and parallel classifiers and asserts they agree.
func allVoxels(t *testing.T, n int, density uint8, opt Options) *Classified {
	t.Helper()
	data := make([]uint8, n*n*n)
	for i := range data {
		data[i] = density
	}
	v := &vol.Volume{Nx: n, Ny: n, Nz: n, Data: data}
	c := Classify(v, opt)
	p := ClassifyParallel(v, opt, 3)
	for i := range c.Voxels {
		if c.Voxels[i] != p.Voxels[i] {
			t.Fatalf("serial and parallel classification differ at voxel %d", i)
		}
	}
	return c
}

// TestAllTransparentVolume classifies an all-air cube: every voxel must
// be fully transparent and the transparent fraction exactly 1.
func TestAllTransparentVolume(t *testing.T) {
	c := allVoxels(t, 8, 0, Options{})
	for i, vx := range c.Voxels {
		if vx != 0 {
			t.Fatalf("voxel %d = %#x, want 0", i, vx)
		}
	}
	if f := c.TransparentFrac(); f != 1 {
		t.Fatalf("TransparentFrac = %v, want 1", f)
	}
}

// TestFullySaturatedVolume classifies a cube of maximum density: the MRI
// transfer saturates to alpha 1, so every voxel must carry opacity 255
// and the transparent fraction must be exactly 0. Interior voxels have a
// zero gradient and take the flat-shade path; boundary voxels see a
// density cliff at the volume edge and shade directionally — both must
// still be opaque.
func TestFullySaturatedVolume(t *testing.T) {
	c := allVoxels(t, 8, 255, Options{})
	for i, vx := range c.Voxels {
		if Opacity(vx) != 255 {
			t.Fatalf("voxel %d opacity = %d, want 255", i, Opacity(vx))
		}
		r, g, b := RGB(vx)
		if r == 0 && g == 0 && b == 0 {
			t.Fatalf("voxel %d is opaque but black", i)
		}
	}
	if f := c.TransparentFrac(); f != 0 {
		t.Fatalf("TransparentFrac = %v, want 0", f)
	}
}

// TestSingleVoxelRamp classifies a cube that is air except for one bright
// voxel at the center: exactly that voxel classifies non-transparent, and
// sweeping its density across the MRI threshold flips it between
// transparent and visible.
func TestSingleVoxelRamp(t *testing.T) {
	const n = 7
	center := (n/2*n+n/2)*n + n/2
	for _, tc := range []struct {
		density uint8
		visible bool
	}{
		{1, false},  // non-air but below the transfer threshold
		{59, false}, // just under the threshold
		{61, false}, // ramp(61)*0.25 ~ 0.006 -> quantizes under MinOpacity 4
		{80, true},  // mid-ramp
		{255, true}, // saturated
	} {
		data := make([]uint8, n*n*n)
		data[center] = tc.density
		v := &vol.Volume{Nx: n, Ny: n, Nz: n, Data: data}
		c := Classify(v, Options{})
		opaque := 0
		for i, vx := range c.Voxels {
			if Opacity(vx) >= c.MinOpacity {
				opaque++
				if i != center {
					t.Fatalf("density %d: voxel %d visible, expected only the center %d", tc.density, i, center)
				}
			}
		}
		if tc.visible && opaque != 1 {
			t.Errorf("density %d: %d visible voxels, want the center voxel only", tc.density, opaque)
		}
		if !tc.visible && opaque != 0 {
			t.Errorf("density %d: %d visible voxels, want none", tc.density, opaque)
		}
	}
}

// TestDefaultMinOpacity pins the default threshold the encoders and
// compositors key off: 4/255 unless overridden.
func TestDefaultMinOpacity(t *testing.T) {
	v := &vol.Volume{Nx: 2, Ny: 2, Nz: 2, Data: make([]uint8, 8)}
	if c := Classify(v, Options{}); c.MinOpacity != 4 {
		t.Fatalf("default MinOpacity = %d, want 4", c.MinOpacity)
	}
	if c := Classify(v, Options{MinOpacity: 9}); c.MinOpacity != 9 {
		t.Fatalf("explicit MinOpacity = %d, want 9", c.MinOpacity)
	}
}
