package classify

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"shearwarp/internal/vol"
)

// quantRound is quant as it was: math.Round, then clamp.
func quantRound(x float64) uint8 {
	v := int(math.Round(x * 255))
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// referenceClassify is the per-voxel walk the fast path replaced, kept as
// the oracle: every non-air voxel takes its gradient from Volume.Gradient
// (six bounds-clamped reads), is classified whatever its density, and is
// quantized through math.Round.
func referenceClassify(v *vol.Volume, tf TransferFunc, lt Light) []Voxel {
	ln := math.Sqrt(lt.Dx*lt.Dx + lt.Dy*lt.Dy + lt.Dz*lt.Dz)
	lx, ly, lz := lt.Dx/ln, lt.Dy/ln, lt.Dz/ln
	quant := quantRound
	out := make([]Voxel, v.VoxelCount())
	for z := 0; z < v.Nz; z++ {
		for y := 0; y < v.Ny; y++ {
			for x := 0; x < v.Nx; x++ {
				d := v.At(x, y, z)
				if d == 0 {
					continue
				}
				gx, gy, gz := v.Gradient(x, y, z)
				gm := math.Sqrt(gx*gx + gy*gy + gz*gz)
				a, r, g, b := tf(d, gm)
				if a <= 0 {
					continue
				}
				shade := lt.Ambient
				if gm > 1e-6 {
					nl := -(gx*lx + gy*ly + gz*lz) / gm
					if nl > 0 {
						shade += lt.Diffuse * nl
					}
				} else {
					shade += lt.Diffuse * 0.5
				}
				if shade > 1 {
					shade = 1
				}
				out[(z*v.Ny+y)*v.Nx+x] = Pack(quant(a), quant(r*shade), quant(g*shade), quant(b*shade))
			}
		}
	}
	return out
}

// checkAgainstReference compares ClassifyParallel voxel for voxel with the
// oracle, and its running transparent count with a rescan.
func checkAgainstReference(t *testing.T, v *vol.Volume, tf TransferFunc, procs int) {
	t.Helper()
	want := referenceClassify(v, tf, DefaultLight)
	got := ClassifyParallel(v, Options{Transfer: tf}, procs)
	transparent := 0
	for i := range want {
		if got.Voxels[i] != want[i] {
			t.Fatalf("voxel %d (x=%d y=%d z=%d, density %d): got %#08x, want %#08x", i,
				i%v.Nx, i/v.Nx%v.Ny, i/(v.Nx*v.Ny), v.Data[i], got.Voxels[i], want[i])
		}
		if Opacity(want[i]) < got.MinOpacity {
			transparent++
		}
	}
	if frac := float64(transparent) / float64(len(want)); got.TransparentFrac() != frac {
		t.Fatalf("TransparentFrac = %v, a rescan counts %v", got.TransparentFrac(), frac)
	}
}

// testTransfers is every shipped transfer function plus one whose opacity
// comes from the gradient alone, so no density may be skipped on the
// strength of a flat neighbourhood.
var testTransfers = []struct {
	name string
	tf   TransferFunc
}{
	{"mri", MRITransfer},
	{"ct", CTTransfer},
	{"iso1", IsoTransfer(1)},
	{"iso128", IsoTransfer(128)},
	{"iso255", IsoTransfer(255)},
	{"edges", func(_ uint8, gradMag float64) (alpha, r, g, b float64) {
		return math.Min(gradMag/100, 1), 0.9, 0.8, 0.7
	}},
}

// randomVolume fills a volume with air (a third of the voxels) and the full
// density range, so neighbouring samples differ by up to 255.
func randomVolume(rng *rand.Rand, nx, ny, nz int) *vol.Volume {
	v := vol.New(nx, ny, nz)
	for i := range v.Data {
		if rng.Intn(3) > 0 {
			v.Data[i] = uint8(rng.Intn(256))
		}
	}
	return v
}

func TestClassifyFastPathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	vols := []*vol.Volume{vol.MRIBrain(37), vol.CTHead(37)}
	for _, d := range [][3]int{{1, 1, 1}, {2, 2, 2}, {3, 3, 3}, {1, 7, 5}, {7, 1, 5}, {7, 5, 1}, {5, 4, 9}} {
		vols = append(vols, randomVolume(rng, d[0], d[1], d[2]))
	}
	for _, v := range vols {
		for _, tc := range testTransfers {
			for _, procs := range []int{1, 2, 3, v.Nz, v.Nz + 5} {
				t.Run(fmt.Sprintf("%dx%dx%d/%s/procs=%d", v.Nx, v.Ny, v.Nz, tc.name, procs), func(t *testing.T) {
					checkAgainstReference(t, v, tc.tf, procs)
				})
			}
		}
	}
}

func FuzzClassifyEquivalence(f *testing.F) {
	f.Add([]byte{0, 255, 0, 255, 128, 7}, uint8(3), uint8(3), uint8(3), uint8(0), uint8(2))
	f.Add([]byte{200, 119, 120, 121, 0, 59, 60, 61}, uint8(8), uint8(2), uint8(4), uint8(1), uint8(1))
	f.Add([]byte{127, 128, 129}, uint8(0), uint8(6), uint8(8), uint8(3), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, nx, ny, nz, tf, procs uint8) {
		if len(data) == 0 {
			return
		}
		v := vol.New(1+int(nx)%9, 1+int(ny)%9, 1+int(nz)%9)
		for i := range v.Data {
			v.Data[i] = data[i%len(data)]
		}
		checkAgainstReference(t, v, testTransfers[int(tf)%len(testTransfers)].tf, int(procs)%12)
	})
}

// TestTransferOpacityMonotoneInGradient checks the TransferFunc contract
// the skip table rests on, for every transfer function above and every
// density, over the central-difference magnitudes 8-bit samples can reach.
func TestTransferOpacityMonotoneInGradient(t *testing.T) {
	var diffs []float64 // neighbour differences, including the extreme
	for a := 0.0; a <= 255; a += 15 {
		diffs = append(diffs, a)
	}
	var gms []float64
	for _, a := range diffs {
		for _, b := range diffs {
			for _, c := range diffs {
				gms = append(gms, math.Sqrt(a*a+b*b+c*c)/2)
			}
		}
	}
	sort.Float64s(gms)
	if top := gms[len(gms)-1]; top > maxGradMag {
		t.Fatalf("reachable gradient magnitude %v exceeds maxGradMag %v", top, maxGradMag)
	}
	gms = append(gms, maxGradMag)
	for _, tc := range testTransfers {
		for d := 0; d < 256; d++ {
			prev, prevGM := math.Inf(-1), 0.0
			for _, gm := range gms {
				a, _, _, _ := tc.tf(uint8(d), gm)
				if a < prev {
					t.Fatalf("%s: opacity of density %d falls from %v at gradient %v to %v at %v",
						tc.name, d, prev, prevGM, a, gm)
				}
				prev, prevGM = a, gm
			}
		}
	}
}

// TestQuantMatchesRound pins quant to the math.Round formulation it
// replaced, at every half-integer boundary's neighbouring floats and over
// random inputs.
func TestQuantMatchesRound(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		if got, want := quant(x), quantRound(x); got != want {
			t.Fatalf("quant(%v) = %d, math.Round gives %d", x, got, want)
		}
	}
	for n := -2; n <= 258; n++ {
		// x*255 lands on or next to n and n+0.5 for the floats around each.
		for _, y := range []float64{float64(n), float64(n) + 0.5} {
			x := y / 255
			for i := 0; i < 8; i++ {
				check(x)
				x = math.Nextafter(x, math.Inf(1))
			}
			x = y / 255
			for i := 0; i < 8; i++ {
				x = math.Nextafter(x, math.Inf(-1))
				check(x)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		check(rng.Float64()*1.02 - 0.01)
	}
	check(math.NaN())
	check(math.Inf(-1))
}
