package warp

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"shearwarp/internal/img"
	"shearwarp/internal/xform"
)

// randChannel draws an intermediate-image channel: often exactly 0 or 1,
// sometimes just outside [0, 1] or far outside it, so quant255 rounds both
// ways and clamps at both ends.
func randChannel(rng *rand.Rand) float32 {
	switch r := rng.Intn(10); {
	case r < 2:
		return 0
	case r < 3:
		return 1
	case r < 4:
		return 2*rng.Float32() - 0.5
	case r < 5:
		return float32(rng.NormFloat64() * 1e6)
	default:
		return rng.Float32()
	}
}

// randRowMap draws the start (u, v) and the per-pixel step (du, dv) of one
// output row over a w×h intermediate image: rows crossing its edges at any
// angle, from negative coordinates or from past its far side; rows that
// run along the border strips (every pixel a border pixel, u or v fixed in
// [-1, 0) or [n-1, n)); and rows that stay outside (all background).
func randRowMap(rng *rand.Rand, w, h int) (u, v, du, dv float64) {
	step := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return float64(rng.Intn(5)-2) / 4
		default:
			return 4*rng.Float64() - 2
		}
	}
	u = (float64(w)+16)*rng.Float64() - 8
	v = (float64(h)+16)*rng.Float64() - 8
	du, dv = step(), step()
	edge := func(n int) float64 { // a coordinate whose taps straddle an edge
		if rng.Intn(2) == 0 {
			return -rng.Float64()
		}
		return float64(n) - 1 + rng.Float64()
	}
	switch rng.Intn(6) {
	case 0: // along a horizontal border strip
		v, dv = edge(h), 0
	case 1: // along a vertical border strip
		u, du = edge(w), 0
	case 2: // outside the image
		v, dv = -2-10*rng.Float64(), 0
	}
	return u, v, du, dv
}

// The warp the untraced path runs (SSE2 on amd64) must equal the Go
// reference byte for byte — R, G and B written, alpha untouched — and
// count for count in Pixels, Background and Cycles, on random affine row
// maps over random intermediate images.
func FuzzWarpMatchesReference(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for row := range 32 {
			w, h := 1+rng.Intn(24), 1+rng.Intn(24)
			m := img.NewIntermediate(w, h)
			for i := range m.Pix {
				m.Pix[i] = randChannel(rng)
			}
			if rng.Intn(2) == 0 {
				// Every pixel holds the same channels, each a rounding
				// boundary of quant255: the resampled value lands on the
				// boundary up to rounding, so a different order of the
				// float32 operations shows in the bytes.
				var px [4]float32
				for i := range px {
					px[i] = (float32(rng.Intn(256)) + 0.5) / 255
				}
				for i := range m.Pix {
					m.Pix[i] = px[i%4]
				}
			}
			u, v, du, dv := randRowMap(rng, w, h)
			n := 1 + rng.Intn(80)
			fac := &xform.Factorization{WarpInv: xform.Mat3{du, 0, u, dv, 0, v, 0, 0, 1}}
			got := &img.Final{W: n, H: 1, Pix: make([]uint8, 4*n)}
			for i := range got.Pix {
				got.Pix[i] = uint8(rng.Intn(256))
			}
			want := &img.Final{W: n, H: 1, Pix: bytes.Clone(got.Pix)}

			var cg Counters
			NewCtx(fac, m, got).WarpSpan(0, 0, n, &cg)
			pixels, background := NewCtx(fac, m, want).warpRowRef(want.Pix, u, v)
			cw := Counters{Rows: 1, Pixels: pixels, Background: background,
				Cycles: CyclesPerRowSetup + pixels*CyclesPerPixel + background*CyclesPerBackground}
			if cg != cw {
				t.Fatalf("row %d (%dx%d image, u %g+%g·x, v %g+%g·x): counters %+v, reference %+v",
					row, w, h, u, du, v, dv, cg, cw)
			}
			if i := firstDiff(got.Pix, want.Pix); i >= 0 {
				x := i / 4
				t.Fatalf("row %d (%dx%d image, u %g+%g·x, v %g+%g·x): byte %d of pixel %d (u %g, v %g) is %d, reference %d",
					row, w, h, u, du, v, dv, i%4, x, u+float64(x)*du, v+float64(x)*dv, got.Pix[i], want.Pix[i])
			}
		}
	})
}

func firstDiff(a, b []uint8) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// BenchmarkWarpSpan times the untraced warp, in ns per output pixel, on
// one row of each kind of pixel over a composited 64³ MRI frame: the
// central row of a rotated view (all interior pixels), a row wholly
// outside the intermediate image (all background), and a row along its top
// border strip (v in [-1, 0): every pixel but one a border pixel, which
// the SSE2 warp hands back to Go).
func BenchmarkWarpSpan(b *testing.B) {
	f, m := composited(b, 64, 0.5, 0.25)
	out := img.NewFinal(f.FinalW, f.FinalH)
	along := func(v float64) *xform.Factorization {
		g := *f
		g.WarpInv = xform.Mat3{1, 0, -2, 0, 0, v, 0, 0, 1}
		return &g
	}
	for _, row := range []struct {
		name string
		f    *xform.Factorization
		y    int
	}{
		{"central", f, out.H / 2},
		{"background", along(-3.5), 0},
		{"border", along(-0.5), 0},
	} {
		b.Run(row.name, func(b *testing.B) {
			c := NewCtx(row.f, m, out)
			var cnt Counters
			for range b.N {
				c.WarpSpan(row.y, 0, out.W, &cnt)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*out.W), "ns/pixel")
			b.ReportMetric(math.Round(100*float64(cnt.Background)/float64(cnt.Pixels+cnt.Background)), "%background")
		})
	}
}
