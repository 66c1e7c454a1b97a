// Package classify assigns an opacity and a shaded color to every voxel of
// a raw volume — the first of the three volume rendering steps. The output
// feeds both the run-length encoder (shear-warp path) and the min-max
// octree (ray-casting baseline).
//
// Classification is view-independent, so in an animation it runs once per
// volume, exactly as in Lacroute's renderer. Shading uses a fixed
// directional light with a Lambertian term plus ambient, evaluated from
// central-difference gradients.
package classify

import (
	"math"
	"sync"

	"shearwarp/internal/vol"
)

// Voxel packs a classified sample: 8-bit opacity and 8-bit RGB color,
// encoded as A<<24 | R<<16 | G<<8 | B. Opacity 0 means fully transparent;
// such voxels are elided by the run-length encoder.
type Voxel = uint32

// Opacity extracts the 8-bit opacity of a packed voxel.
func Opacity(v Voxel) uint8 { return uint8(v >> 24) }

// RGB extracts the 8-bit color channels of a packed voxel.
func RGB(v Voxel) (r, g, b uint8) { return uint8(v >> 16), uint8(v >> 8), uint8(v) }

// Pack builds a packed voxel from opacity and color channels.
func Pack(a, r, g, b uint8) Voxel {
	return uint32(a)<<24 | uint32(r)<<16 | uint32(g)<<8 | uint32(b)
}

// TransferFunc maps a raw density sample and gradient magnitude to opacity
// (0..1) and base color (0..1 per channel), before shading.
//
// Contract: for a fixed density, opacity must be non-decreasing in gradMag.
// Classification relies on it to decide, once per density, that a density
// is transparent whatever its gradient (opacity <= 0 at maxGradMag), and
// skips the gradient and shading of such voxels.
type TransferFunc func(density uint8, gradMag float64) (alpha, r, g, b float64)

// MRITransfer is the default transfer function for the MRI brain phantom:
// low densities (air, skull in MRI) are transparent, soft tissue renders as
// translucent warm tones, bright CSF/tissue as denser material. Tuned so
// that, like the paper's data sets, 70-95% of classified voxels are
// transparent.
func MRITransfer(density uint8, gradMag float64) (alpha, r, g, b float64) {
	d := float64(density)
	switch {
	case d < 60:
		return 0, 0, 0, 0
	case d < 100:
		a := ramp(d, 60, 100) * 0.25
		return a, 0.85, 0.70, 0.55
	case d < 160:
		a := 0.25 + ramp(d, 100, 160)*0.45
		return a, 0.90, 0.78, 0.65
	default:
		a := 0.7 + ramp(d, 160, 255)*0.3
		return a, 0.95, 0.90, 0.82
	}
}

// CTTransfer is the default transfer function for the CT head phantom: a
// bone-isolating classification, with gradient-weighted opacity so flat
// soft-tissue interiors stay transparent. This yields the higher transparent
// fraction typical of classified CT.
func CTTransfer(density uint8, gradMag float64) (alpha, r, g, b float64) {
	d := float64(density)
	if d < 120 {
		return 0, 0, 0, 0
	}
	a := ramp(d, 120, 210)
	// Emphasize surfaces: scale opacity by gradient strength.
	gw := 0.4 + 0.6*math.Min(gradMag/40.0, 1.0)
	return a * gw, 0.93, 0.91, 0.84
}

// DefaultIsoThreshold is the isosurface density threshold selected when a
// configuration leaves it unset. 128 sits inside the brightest tissue band
// of the MRI phantom and just above the CT transfer's bone cutoff (120),
// so the default surface is anatomically sensible for both phantoms.
const DefaultIsoThreshold uint8 = 128

// IsoTransfer returns the isosurface (surface display) transfer function
// for a density threshold: densities at or above the threshold are fully
// opaque with a fixed bone-white base color, everything below is fully
// transparent. The threshold comparison is >=, so a voxel whose density
// equals the threshold lies on the surface. Shading still happens in
// shade — the Lambertian term over the central-difference gradient
// — so the result is a shaded surface, not a flat silhouette. Note that
// Classify skips density-0 voxels entirely (air), so they stay transparent
// even under IsoTransfer(0).
func IsoTransfer(threshold uint8) TransferFunc {
	return func(density uint8, gradMag float64) (alpha, r, g, b float64) {
		if density < threshold {
			return 0, 0, 0, 0
		}
		return 1, 0.95, 0.93, 0.88
	}
}

func ramp(x, lo, hi float64) float64 {
	if x <= lo {
		return 0
	}
	if x >= hi {
		return 1
	}
	return (x - lo) / (hi - lo)
}

// Light is a directional light for Lambertian shading.
type Light struct {
	Dx, Dy, Dz float64 // direction toward the light (normalized by Classify)
	Ambient    float64 // ambient fraction in [0,1]
	Diffuse    float64 // diffuse fraction in [0,1]
}

// DefaultLight illuminates from the upper-left-front.
var DefaultLight = Light{Dx: -0.4, Dy: -0.6, Dz: -0.7, Ambient: 0.35, Diffuse: 0.65}

// Classified is the classified volume: one packed Voxel per input voxel,
// same storage order as the source. MinOpacity is the threshold below which
// the encoder treats a voxel as transparent.
type Classified struct {
	Nx, Ny, Nz int
	Voxels     []Voxel
	MinOpacity uint8

	transFracOnce sync.Once
	transFrac     float64
}

// At returns the packed voxel at (x, y, z); out of bounds reads transparent.
func (c *Classified) At(x, y, z int) Voxel {
	if x < 0 || y < 0 || z < 0 || x >= c.Nx || y >= c.Ny || z >= c.Nz {
		return 0
	}
	return c.Voxels[(z*c.Ny+y)*c.Nx+x]
}

// Transparent reports whether a packed voxel is below the opacity threshold.
func (c *Classified) Transparent(v Voxel) bool { return Opacity(v) < c.MinOpacity }

// TransparentFrac returns the fraction of voxels below the threshold — the
// statistic the paper reports as 70-95% for medical data. The volume is
// scanned once; the result is cached (the voxels are immutable after
// classification) so per-frame reporting does not rescan the volume.
func (c *Classified) TransparentFrac() float64 {
	c.transFracOnce.Do(func() {
		n := 0
		for _, v := range c.Voxels {
			if Opacity(v) < c.MinOpacity {
				n++
			}
		}
		c.transFrac = float64(n) / float64(len(c.Voxels))
	})
	return c.transFrac
}

// Options configures classification.
type Options struct {
	Transfer   TransferFunc // nil selects MRITransfer
	Light      Light        // zero value selects DefaultLight
	MinOpacity uint8        // 0 selects the default threshold (4/255)
}

// Classify runs classification and shading over the whole volume.
func Classify(v *vol.Volume, opt Options) *Classified {
	return ClassifyParallel(v, opt, 1)
}

// ClassifyParallel classifies with the given number of goroutines,
// partitioning the volume by z slices; procs < 2 classifies on the calling
// goroutine. The output does not depend on procs: classification is
// per-voxel (gradients read the raw volume, which is immutable), so the
// decomposition carries no ordering effects.
//
// Classification runs once per volume (it is view-independent), but for
// large volumes it is the dominant preprocessing cost, so the renderer's
// setup benefits from the same parallelism as its frames.
func ClassifyParallel(v *vol.Volume, opt Options, procs int) *Classified {
	tf := opt.Transfer
	if tf == nil {
		tf = MRITransfer
	}
	lt := opt.Light
	if lt.Diffuse == 0 && lt.Ambient == 0 {
		lt = DefaultLight
	}
	minOp := opt.MinOpacity
	if minOp == 0 {
		minOp = 4
	}
	c := &Classified{Nx: v.Nx, Ny: v.Ny, Nz: v.Nz,
		Voxels: make([]Voxel, v.VoxelCount()), MinOpacity: minOp}
	sh := newShader(tf, lt)

	if procs > v.Nz {
		procs = v.Nz
	}
	opaque := 0
	if procs < 2 {
		opaque = sh.classifySlab(v, c, 0, v.Nz)
	} else {
		counts := make([]int, procs)
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				counts[p] = sh.classifySlab(v, c, p*v.Nz/procs, (p+1)*v.Nz/procs)
			}(p)
		}
		wg.Wait()
		for _, n := range counts {
			opaque += n
		}
	}
	// The voxels were counted as they were written, so the first frame's
	// TransparentFrac does not rescan the volume.
	c.transFracOnce.Do(func() {
		c.transFrac = float64(len(c.Voxels)-opaque) / float64(len(c.Voxels))
	})
	return c
}

// maxGradMag bounds the central-difference gradient magnitude of 8-bit
// samples: each component lies in [-127.5, 127.5], so the magnitude never
// exceeds 127.5*sqrt(3) < 221.
const maxGradMag = 221.0

// shader holds what classifying one voxel needs besides its density and
// gradient: the transfer function, the normalized light, and the table of
// densities the transfer function makes transparent at every gradient.
type shader struct {
	tf               TransferFunc
	skip             [256]bool
	ambient, diffuse float64
	lx, ly, lz       float64
}

func newShader(tf TransferFunc, lt Light) *shader {
	ln := math.Sqrt(lt.Dx*lt.Dx + lt.Dy*lt.Dy + lt.Dz*lt.Dz)
	if ln == 0 {
		ln = 1
	}
	sh := &shader{tf: tf, ambient: lt.Ambient, diffuse: lt.Diffuse,
		lx: lt.Dx / ln, ly: lt.Dy / ln, lz: lt.Dz / ln}
	sh.skip[0] = true // air stays transparent under every transfer function
	for d := 1; d < 256; d++ {
		a, _, _, _ := tf(uint8(d), maxGradMag)
		sh.skip[d] = a <= 0
	}
	return sh
}

// classifySlab classifies slices [z0, z1) into c.Voxels and returns how
// many of them came out non-transparent (opacity >= c.MinOpacity).
//
// Voxels off the volume's faces take their central differences by indexing
// the neighbouring rows directly; the expressions are Volume.Gradient's, on
// the same operands, so the bits are the same. Face voxels, whose
// out-of-bounds neighbours read as 0, go through Volume.Gradient itself.
func (sh *shader) classifySlab(v *vol.Volume, c *Classified, z0, z1 int) (opaque int) {
	nx, ny, nz := v.Nx, v.Ny, v.Nz
	for z := z0; z < z1; z++ {
		for y := 0; y < ny; y++ {
			base := (z*ny + y) * nx
			row := v.Data[base : base+nx]
			out := c.Voxels[base : base+nx]
			// With all four neighbouring rows in bounds the row's interior
			// is [1, nx-1); otherwise it is empty.
			var yLo, yHi, zLo, zHi []uint8
			inner := 0
			if y > 0 && y < ny-1 && z > 0 && z < nz-1 {
				yLo, yHi = v.Data[base-nx:base], v.Data[base+nx:base+2*nx]
				zLo, zHi = v.Data[base-nx*ny:][:nx], v.Data[base+nx*ny:][:nx]
				inner = nx - 1
			}
			for x, d := range row {
				if sh.skip[d] {
					continue
				}
				var gx, gy, gz float64
				if x > 0 && x < inner {
					gx = (float64(row[x+1]) - float64(row[x-1])) * 0.5
					gy = (float64(yHi[x]) - float64(yLo[x])) * 0.5
					gz = (float64(zHi[x]) - float64(zLo[x])) * 0.5
				} else {
					gx, gy, gz = v.Gradient(x, y, z)
				}
				vx := sh.shade(d, gx, gy, gz)
				out[x] = vx
				if Opacity(vx) >= c.MinOpacity {
					opaque++
				}
			}
		}
	}
	return opaque
}

// shade classifies and shades one voxel from its density and gradient.
func (sh *shader) shade(d uint8, gx, gy, gz float64) Voxel {
	gm := math.Sqrt(gx*gx + gy*gy + gz*gz)
	a, r, g, b := sh.tf(d, gm)
	if a <= 0 {
		return 0
	}
	shade := sh.ambient
	if gm > 1e-6 {
		// Lambertian: gradient points from low to high density; the
		// surface normal for shading is its negation.
		nl := -(gx*sh.lx + gy*sh.ly + gz*sh.lz) / gm
		if nl > 0 {
			shade += sh.diffuse * nl
		}
	} else {
		shade += sh.diffuse * 0.5 // interior voxels: flat shade
	}
	if shade > 1 {
		shade = 1
	}
	return Pack(quant(a), quant(r*shade), quant(g*shade), quant(b*shade))
}

// quant maps [0, 1] to 0..255, rounding to nearest with halves up — the
// value of int(math.Round(x*255)) clamped to a byte, without the call. For
// 0.5 <= y < 254.5 the sum y+0.5 is either exact or, where it crosses into
// the next binade, rounds without passing an integer, so truncating it
// gives round-half-up; below 0.5 (and for NaN) the rounded value is <= 0.
func quant(x float64) uint8 {
	y := x * 255
	if !(y >= 0.5) {
		return 0
	}
	if y >= 254.5 {
		return 255
	}
	return uint8(y + 0.5)
}
