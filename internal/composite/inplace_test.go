package composite

import (
	"math"
	"math/rand"
	"testing"

	"shearwarp/internal/classify"
	"shearwarp/internal/img"
	"shearwarp/internal/rle"
	"shearwarp/internal/xform"
)

// reach must name exactly the slices sliceSetup accepts — checked against
// the untabulated expression too — on every row and on rows outside the
// image, for both traversal directions, every principal axis and views on
// and beside the axis flips.
func TestReachIntervalMatchesSliceSetup(t *testing.T) {
	const nx, ny, nz = 24, 40, 16
	cl := &classify.Classified{Nx: nx, Ny: ny, Nz: nz,
		Voxels: make([]classify.Voxel, nx*ny*nz), MinOpacity: 4}
	enc := map[xform.Axis]*rle.Volume{}

	views := [][2]float64{{0, 0}, {0, math.Pi / 2}, {0, -math.Pi / 2}}
	for q := -4; q <= 4; q++ { // axis-aligned and 45° flips, and a hair either side
		for _, eps := range []float64{0, 1e-12, -1e-12, 1e-6, -1e-6} {
			views = append(views, [2]float64{float64(q)*math.Pi/4 + eps, eps})
			views = append(views, [2]float64{eps, float64(q)*math.Pi/4 + eps})
		}
	}
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 150; i++ {
		views = append(views, [2]float64{(rng.Float64()*4 - 2) * math.Pi, (rng.Float64() - 0.5) * math.Pi})
	}

	steps := map[int]bool{}
	axes := map[xform.Axis]bool{}
	for _, view := range views {
		f := xform.Factorize(nx, ny, nz, xform.ViewMatrix(nx, ny, nz, view[0], view[1]))
		steps[f.KStep], axes[f.Axis] = true, true
		if enc[f.Axis] == nil {
			enc[f.Axis] = rle.Encode(cl, f.Axis)
		}
		c := NewCtx(&f, enc[f.Axis], img.NewIntermediate(f.IntW, f.IntH))
		rows := []int{-f.Nj - f.Nk - 5, f.IntH + f.Nj + f.Nk + 5} // no slice reaches these
		for vRow := -3; vRow < f.IntH+3; vRow++ {
			rows = append(rows, vRow)
		}
		for ri, vRow := range rows {
			lo, hi := c.reach(vRow)
			if lo < 0 || lo > hi || hi > f.Nk {
				t.Fatalf("view %v row %d: reach [%d, %d) outside [0, %d]", view, vRow, lo, hi, f.Nk)
			}
			if ri < 2 && lo != hi {
				t.Fatalf("view %v row %d: reach [%d, %d) on a row no slice reaches", view, vRow, lo, hi)
			}
			for idx := 0; idx < f.Nk; idx++ {
				k := f.KFront + idx*f.KStep
				_, tv := f.SliceShift(k)
				j0 := int(math.Floor(float64(vRow) - tv))
				want := j0 >= -1 && j0 < f.Nj
				var g sliceGeom
				if ok := c.sliceSetup(vRow, k, &g); ok != want {
					t.Fatalf("view %v row %d idx %d: sliceSetup ok %v, direct %v", view, vRow, idx, ok, want)
				}
				if got := idx >= lo && idx < hi; got != want {
					t.Fatalf("view %v (KStep %d, Sj %g) row %d: reach [%d, %d) but idx %d reaches: %v",
						view, f.KStep, f.Sj, vRow, lo, hi, idx, want)
				}
			}
		}
	}
	if !steps[1] || !steps[-1] || len(axes) != 3 {
		t.Fatalf("views covered KStep %v, axes %v", steps, axes)
	}
}

// twoLines builds a one-slice, two-line volume from two opacity patterns
// (true = non-transparent). Every voxel value is unique, so a tap read from
// the wrong place cannot pass for the right one.
func twoLines(pat [2][]bool) (*rle.Volume, [2][]classify.Voxel) {
	ni := len(pat[0])
	cl := &classify.Classified{Nx: ni, Ny: 2, Nz: 1,
		Voxels: make([]classify.Voxel, 2*ni), MinOpacity: 4}
	var dense [2][]classify.Voxel
	for l := range pat {
		dense[l] = cl.Voxels[l*ni : (l+1)*ni]
		for i, on := range pat[l] {
			if on {
				dense[l][i] = classify.Voxel(200<<24 | (l+1)<<16 | (i + 1))
			}
		}
	}
	return rle.Encode(cl, xform.AxisZ), dense
}

// The taps the kernels see — source selected by the piece's code, masked by
// its window — must be, voxel for voxel, the line's voxels with zeros in the
// gaps: what fillLane stages. Covers 1-voxel runs, spans touching index 0
// and Ni, clamping at both row ends, partly saturated rows, and the first
// and last span of V.Vox, whose in-place base would leave the stream and
// must be staged instead.
func TestMaskedTapsEqualStagedLane(t *testing.T) {
	rng := rand.New(rand.NewSource(1997))
	pattern := func(ni int) []bool {
		p := make([]bool, ni)
		switch rng.Intn(5) {
		case 0: // empty line
		case 1: // one span over the whole line, touching 0 and Ni
			for i := range p {
				p[i] = true
			}
		case 2: // 1-voxel runs
			for i := rng.Intn(2); i < ni; i += 2 {
				p[i] = true
			}
		default: // random runs
			on := rng.Intn(2) == 0
			for i := 0; i < ni; {
				n := 1 + rng.Intn(6)
				for ; n > 0 && i < ni; n, i = n-1, i+1 {
					p[i] = on
				}
				on = !on
			}
		}
		return p
	}
	var direct, staged, zero, fellBack int
	for trial := 0; trial < 4000; trial++ {
		ni := 1 + rng.Intn(24)
		v, dense := twoLines([2][]bool{pattern(ni), pattern(ni)})
		off := rng.Intn(7) - 3
		lead := rng.Intn(2)
		W := ni + off + rng.Intn(3) - 1 // sometimes clips the last span
		if W < 1 {
			W = 1
		}
		f := xform.Factorization{Ni: ni, Nj: 2, Nk: 1, KStep: 1, IntW: W, IntH: 1}
		c := NewCtx(&f, v, img.NewIntermediate(W, 1))
		c.act = c.act[:0]
		if rng.Intn(3) == 0 {
			c.act = append(c.act, pixSpan{0, W})
		} else {
			for u := rng.Intn(3); u < W; {
				e := min(u+1+rng.Intn(8), W)
				c.act = append(c.act, pixSpan{u, e})
				u = e + 1 + rng.Intn(3)
			}
		}
		a0, b0 := v.SpanOff[0], v.SpanOff[1]
		a1, b1 := v.SpanOff[1], v.SpanOff[2]
		line := [2]struct{ lo, cn, vx []int32 }{
			{v.SpanLo[a0:b0], v.SpanCnt[a0:b0], v.SpanVox[a0:b0]},
			{v.SpanLo[a1:b1], v.SpanCnt[a1:b1], v.SpanVox[a1:b1]},
		}
		c.mergeIntersectClassify(line[0].lo, line[0].cn, line[0].vx,
			line[1].lo, line[1].cn, line[1].vx, off, lead)

		ref := make([]classify.Voxel, ni+2)
		for _, iv := range c.live {
			n := int(iv.Hi - iv.Lo)
			x0 := int(iv.Lo) - off
			if x0 < -1 || x0+n > ni {
				t.Fatalf("trial %d: piece %+v taps [%d, %d] outside [-1, %d]", trial, iv, x0, x0+n, ni)
			}
			for l, src := range [2]struct {
				b, a, e int32
				lane    []classify.Voxel
			}{{iv.B0, iv.A0, iv.E0, c.vlane0}, {iv.B1, iv.A1, iv.E1, c.vlane1}} {
				spans := 0 // spans of the line the taps meet
				for i := range line[l].lo {
					if s := int(line[l].lo[i]); s <= x0+n && x0 < s+int(line[l].cn[i]) {
						spans++
					}
				}
				switch {
				case src.b >= 0:
					direct++
					if spans != 1 || int(src.b)+n+1 > len(v.Vox) {
						t.Fatalf("trial %d line %d: piece %+v reads in place over %d spans, base %d of %d",
							trial, l, iv, spans, src.b, len(v.Vox))
					}
				case src.b == laneZero:
					zero++
					if spans != 0 {
						t.Fatalf("trial %d line %d: piece %+v reads the zero lane over %d spans", trial, l, iv, spans)
					}
				default:
					staged++
					if spans == 1 {
						fellBack++
					}
				}
				taps := laneSel(src.b, v.Vox, src.lane, c.zvlane)[:n+1]
				fillLane(line[l].lo, line[l].cn, line[l].vx, v.Vox, ref, 0, x0, x0+n)
				for j := 0; j <= n; j++ {
					var want classify.Voxel
					if x := x0 + j; x >= 0 && x < ni {
						want = dense[l][x]
					}
					got := taps[j] &^ outside(j, int(src.a), int(src.e)-1)
					if got != want || ref[x0+j+1] != want {
						t.Fatalf("trial %d line %d piece %+v tap %d (voxel %d): kernel sees %#x, fillLane stages %#x, line holds %#x",
							trial, l, iv, j, x0+j, got, ref[x0+j+1], want)
					}
				}
			}
		}
	}
	if direct == 0 || staged == 0 || zero == 0 || fellBack == 0 {
		t.Fatalf("coverage: %d in-place, %d staged (%d for an out-of-stream base), %d zero-lane lines",
			direct, staged, fellBack, zero)
	}
}
