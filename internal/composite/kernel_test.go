package composite

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"shearwarp/internal/classify"
	"shearwarp/internal/img"
	"shearwarp/internal/rendermode"
	"shearwarp/internal/rle"
	"shearwarp/internal/vol"
	"shearwarp/internal/xform"
)

// visitNi is the line length of generated slice visits: every piece's taps
// (at most 71) fit in a lane of visitNi+2+readPad.
const visitNi = 80

// randVoxel draws a voxel whose opacity is often exactly 0, near the
// empty-sample bound, or 255, with random colour bytes.
func randVoxel(rng *rand.Rand) classify.Voxel {
	var a uint32
	switch r := rng.Intn(10); {
	case r < 3:
		a = 0
	case r < 4:
		a = uint32(1 + rng.Intn(3))
	case r < 5:
		a = 255
	default:
		a = uint32(rng.Intn(256))
	}
	return classify.Voxel(a<<24 | uint32(rng.Intn(1<<24)))
}

// genVisit builds two contexts holding the same generated slice visit on row
// 1 of a three-row image: pieces of 1–70 pixels whose lines read in place
// from a voxel stream behind a window that may clip either end, from a
// staged lane holding stale voxels past the piece, or from the zero lane;
// pixels pre-filled on both sides of the opacity threshold, bilinear or
// arbitrary weights (some exactly zero), and the LUT on or off.
func genVisit(rng *rand.Rand, mip, lut bool) (a, b *Ctx, g sliceGeom) {
	vox := make([]classify.Voxel, 100+rng.Intn(300))
	for i := range vox {
		vox[i] = randVoxel(rng)
	}
	lanes := [3][]classify.Voxel{}
	for l := range 2 {
		lanes[l] = make([]classify.Voxel, visitNi+2+readPad)
		for i := range lanes[l] {
			lanes[l][i] = randVoxel(rng)
		}
	}
	lanes[2] = make([]classify.Voxel, visitNi+2+readPad)

	var live []liveIv
	u := rng.Intn(3)
	for range 1 + rng.Intn(6) {
		n := 1 + rng.Intn(70)
		if rng.Intn(2) == 0 {
			n = 1 + rng.Intn(8)
		}
		iv := liveIv{Lo: int32(u), Hi: int32(u + n)}
		for _, src := range [2]struct{ b, a, e *int32 }{{&iv.B0, &iv.A0, &iv.E0}, {&iv.B1, &iv.A1, &iv.E1}} {
			switch rng.Intn(3) {
			case 0: // in place behind a window
				*src.b = int32(rng.Intn(len(vox) - n - readPad))
				*src.a = int32(rng.Intn(n + 1))
				*src.e = *src.a + 1 + int32(rng.Intn(n+1-int(*src.a)))
				if rng.Intn(3) == 0 {
					*src.a, *src.e = 0, int32(n+1)
				}
			case 1: // staged
				*src.b = ^int32(rng.Intn(visitNi + 2 - n))
				*src.e = int32(n + 1)
			default:
				*src.b = laneZero
				*src.e = int32(n + 1)
			}
		}
		live = append(live, iv)
		u += n + rng.Intn(3)
	}
	W := u + rng.Intn(2)

	switch rng.Intn(4) {
	case 0: // arbitrary weights, some zero, summing past 1
		w := [4]float32{}
		for i := range w {
			if rng.Intn(4) > 0 {
				w[i] = rng.Float32()
			}
		}
		g.w00, g.w10, g.w01, g.w11 = w[0], w[1], w[2], w[3]
	default: // bilinear, as sliceSetup computes them
		wx, wy := rng.Float64(), rng.Float64()
		if rng.Intn(3) == 0 {
			wx = 0
		}
		if rng.Intn(3) == 0 {
			wy = 0
		}
		g.w00 = float32((1 - wx) * (1 - wy))
		g.w10 = float32(wx * (1 - wy))
		g.w01 = float32((1 - wx) * wy)
		g.w11 = float32(wx * wy)
	}

	m := img.NewIntermediate(W, 3)
	for p := 0; p < len(m.Pix); p += 4 {
		var al float32
		switch r := rng.Intn(10); {
		case r < 3:
			al = 0.97 + 0.02*rng.Float32()
		case r < 4:
		default:
			al = rng.Float32()
		}
		m.Pix[p], m.Pix[p+1], m.Pix[p+2], m.Pix[p+3] = al*rng.Float32(), al*rng.Float32(), al*rng.Float32(), al
	}
	f := &xform.Factorization{Si: 2*rng.Float64() - 1, Sj: 2*rng.Float64() - 1}
	mk := func(m *img.Intermediate) *Ctx {
		c := &Ctx{F: f, V: &rle.Volume{Vox: vox}, M: m,
			vlane0: lanes[0], vlane1: lanes[1], zvlane: lanes[2],
			live: live, sat: make([]int32, 0, W)}
		if mip {
			c.Mode = rendermode.MIP
		}
		if lut {
			c.EnableOpacityCorrection()
		}
		return c
	}
	m2 := img.NewIntermediate(W, 3)
	copy(m2.Pix, m.Pix)
	return mk(m), mk(m2), g
}

// The pixel kernel the untraced path runs (SSE2 on amd64) must equal the Go
// reference bit for bit in every pixel and count for count in Samples,
// EmptyPixels and the saturated pixels, in order.
func FuzzKernelMatchesReference(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed, false, false)
		f.Add(seed, false, true)
		f.Add(seed, true, false)
		f.Add(seed, true, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, mip, lut bool) {
		rng := rand.New(rand.NewSource(seed))
		for visit := range 16 {
			got, want, g := genVisit(rng, mip, lut)
			var cg, cw Counters
			got.compositeLive(1, &g, &cg)
			want.compositeLiveRef(1, &g, &cw)
			if cg != cw {
				t.Fatalf("visit %d: counters %+v, reference %+v", visit, cg, cw)
			}
			if !slices.Equal(got.sat, want.sat) {
				t.Fatalf("visit %d: saturated %v, reference %v", visit, got.sat, want.sat)
			}
			for i, p := range got.M.Pix {
				if math.Float32bits(p) != math.Float32bits(want.M.Pix[i]) {
					t.Fatalf("visit %d (pieces %+v, weights %v %v %v %v): float %d (pixel %d) is %g, reference %g",
						visit, got.live, g.w00, g.w10, g.w01, g.w11, i, i/4-got.M.W, p, want.M.Pix[i])
				}
			}
		}
	})
}

// oneVoxelRuns is a 3-D parity checkerboard: along any principal axis every
// run is one voxel, so every piece stages its taps.
func oneVoxelRuns(n int) *vol.Volume {
	v := vol.New(n, n, n)
	for z := range n {
		for y := range n {
			for x := (z + y) % 2; x < n; x += 2 {
				v.Set(x, y, z, 255)
			}
		}
	}
	return v
}

// Every tap load of the four-wide kernel — up to readPad taps past a
// piece's last — must stay inside the piece's tap source: the voxel stream
// for an in-place piece (B+n+readPad < len(Vox)), its lane for a staged or
// zero-lane one. Checked on every slice visit of 240-view rotations.
func TestReadPadCoversEveryTapLoad(t *testing.T) {
	sizes := []int{32, 48, 128}
	if testing.Short() {
		sizes = sizes[:2]
	}
	type volume struct {
		name string
		v    *vol.Volume
		opt  classify.Options
	}
	var vols []volume
	for _, n := range sizes {
		vols = append(vols,
			volume{fmt.Sprint("mri", n), vol.MRIBrain(n), classify.Options{}},
			volume{fmt.Sprint("ct", n), vol.CTHead(n), classify.Options{Transfer: classify.CTTransfer}})
	}
	vols = append(vols, volume{"one-voxel-runs", oneVoxelRuns(24), classify.Options{Transfer: func(d uint8, _ float64) (a, r, g, b float64) {
		if d == 0 {
			return 0, 0, 0, 0
		}
		return 1, 1, 0.9, 0.8
	}}})
	for _, tc := range vols {
		cl := classify.Classify(tc.v, tc.opt)
		enc := map[xform.Axis]*rle.Volume{}
		var inPlace, staged, zero int
		for view := range 240 {
			yaw := 2 * math.Pi * float64(view) / 240
			f := xform.Factorize(tc.v.Nx, tc.v.Ny, tc.v.Nz, xform.ViewMatrix(tc.v.Nx, tc.v.Ny, tc.v.Nz, yaw, 0.7*math.Sin(3*yaw)))
			rv := enc[f.Axis]
			if rv == nil {
				rv = rle.Encode(cl, f.Axis)
				enc[f.Axis] = rv
			}
			c := NewCtx(&f, rv, img.NewIntermediate(f.IntW, f.IntH))
			check := func(int, *sliceGeom, *[2][3][]int32) {
				for _, iv := range c.live {
					n := int(iv.Hi - iv.Lo)
					for _, src := range [2]struct {
						b    int32
						lane []classify.Voxel
					}{{iv.B0, c.vlane0}, {iv.B1, c.vlane1}} {
						var end, size int
						switch {
						case src.b >= 0:
							inPlace++
							end, size = int(src.b)+n+readPad, len(rv.Vox)
						case src.b == laneZero:
							zero++
							end, size = n+readPad, len(c.zvlane)
						default:
							staged++
							end, size = int(^src.b)+n+readPad, len(src.lane)
						}
						if end >= size {
							t.Fatalf("%s view %d: piece %+v reads tap source index %d of %d", tc.name, view, iv, end, size)
						}
					}
				}
			}
			for vRow := range f.IntH {
				visitSlices(c, vRow, check)
			}
		}
		if staged == 0 || zero == 0 || (inPlace == 0 && tc.name != "one-voxel-runs") {
			t.Fatalf("%s: %d in-place, %d staged, %d zero-lane lines — a tap source never occurred", tc.name, inPlace, staged, zero)
		}
	}
}

// visitSlices walks row vRow as scanlineUntraced does, calling check with
// every slice visit's geometry and span windows once its live pieces are
// classified and before they are composited.
func visitSlices(c *Ctx, vRow int, check func(k int, g *sliceGeom, line *[2][3][]int32)) {
	V := c.V
	var cnt Counters
	c.initAct(vRow)
	lo, hi := c.reach(vRow)
	for idx := lo; idx < hi && len(c.act) > 0; idx++ {
		k := c.F.KFront + idx*c.F.KStep
		var g sliceGeom
		c.sliceSetup(vRow, k, &g)
		var line [2][3][]int32
		for l, have := range [2]bool{g.have0, g.have1} {
			if have {
				s := k*V.Nj + g.j0 + l
				a, b := V.SpanOff[s], V.SpanOff[s+1]
				line[l] = [3][]int32{V.SpanLo[a:b], V.SpanCnt[a:b], V.SpanVox[a:b]}
			}
		}
		if g.have0 && g.have1 && g.fractional {
			s := k*V.Nj + g.j0
			c.pairIntersectClassify(V.Pairs[V.PairOff[s]:V.PairOff[s+1]],
				line[0][0], line[0][1], line[0][2], line[1][0], line[1][1], line[1][2], g.off)
		} else {
			lead := 0
			if g.fractional {
				lead = 1
			}
			c.mergeIntersectClassify(line[0][0], line[0][1], line[0][2], line[1][0], line[1][1], line[1][2], g.off, lead)
		}
		check(k, &g, &line)
		if len(c.live) == 0 {
			continue
		}
		c.compositeLive(vRow, &g, &cnt)
		if len(c.sat) > 0 {
			c.applySat(vRow)
		}
	}
}

// BenchmarkKernel times the pixel kernel the untraced path runs against the
// Go reference on one slice visit of pieces of a fixed length, reading their
// taps in place, as ns per pixel: the short pieces are where per-piece cost
// shows (CT pieces average 3 pixels).
func BenchmarkKernel(b *testing.B) {
	for _, mode := range []rendermode.Mode{rendermode.Composite, rendermode.MIP} {
		for _, n := range []int{1, 3, 7, 16, 64} {
			for _, impl := range []string{"kernel", "ref"} {
				b.Run(fmt.Sprintf("%v/n=%d/%s", mode, n, impl), func(b *testing.B) {
					rng := rand.New(rand.NewSource(1))
					vox := make([]classify.Voxel, 8192)
					for i := range vox {
						vox[i] = randVoxel(rng)
					}
					var live []liveIv
					pixels := 0
					for u := 0; u+n <= 2048; u += n + 1 {
						b0 := int32(rng.Intn(len(vox) - n - readPad))
						b1 := int32(rng.Intn(len(vox) - n - readPad))
						live = append(live, liveIv{Lo: int32(u), Hi: int32(u + n),
							B0: b0, E0: int32(n + 1), B1: b1, E1: int32(n + 1)})
						pixels += n
					}
					m := img.NewIntermediate(2048, 1)
					lane := make([]classify.Voxel, 2048+2+readPad)
					c := &Ctx{V: &rle.Volume{Vox: vox}, M: m, Mode: mode,
						vlane0: lane, vlane1: lane, zvlane: lane,
						live: live, sat: make([]int32, 0, m.W)}
					g := sliceGeom{w00: 0.28, w10: 0.12, w01: 0.42, w11: 0.18}
					kernel := c.compositeLive
					if impl == "ref" {
						kernel = c.compositeLiveRef
					}
					var cnt Counters
					b.ResetTimer()
					for range b.N {
						clear(m.Pix)
						c.sat = c.sat[:0]
						kernel(0, &g, &cnt)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pixels), "ns/pixel")
				})
			}
		}
	}
}
