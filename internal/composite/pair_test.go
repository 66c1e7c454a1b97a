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

// pairVisit is what one slice visit's classification leaves behind: the
// live pieces, both scratch lanes and the skip count.
type pairVisit struct {
	live         []liveIv
	lane0, lane1 []classify.Voxel
	skips        int64
}

// classifyBoth classifies one two-line visit with the reference merge and
// with the pair index, from the same lanes and active list, and returns
// both results; c keeps the pair index's.
func classifyBoth(c *Ctx, comps []rle.PairComp, line *[2][3][]int32, off int) (ref, got pairVisit) {
	lane0, lane1 := slices.Clone(c.vlane0), slices.Clone(c.vlane1)
	l0, l1 := line[0], line[1]
	ref.skips = c.mergeIntersectClassify(l0[0], l0[1], l0[2], l1[0], l1[1], l1[2], off, 1)
	ref.live = slices.Clone(c.live)
	ref.lane0, ref.lane1 = slices.Clone(c.vlane0), slices.Clone(c.vlane1)
	copy(c.vlane0, lane0)
	copy(c.vlane1, lane1)
	got.skips = c.pairIntersectClassify(comps, l0[0], l0[1], l0[2], l1[0], l1[1], l1[2], off)
	got.live, got.lane0, got.lane1 = c.live, c.vlane0, c.vlane1
	return ref, got
}

// diffVisit names the first way got differs from ref, or returns "".
func diffVisit(ref, got pairVisit) string {
	switch {
	case got.skips != ref.skips:
		return fmt.Sprintf("skips %d, reference %d", got.skips, ref.skips)
	case !slices.Equal(got.live, ref.live):
		return fmt.Sprintf("live %+v, reference %+v", got.live, ref.live)
	case !slices.Equal(got.lane0, ref.lane0) || !slices.Equal(got.lane1, ref.lane1):
		return "staged lanes differ"
	}
	return ""
}

// pairPattern draws one line's opacity pattern (true = non-transparent):
// empty, full, one-voxel runs, runs one or two voxels apart — the two gaps
// on either side of the pair index's touch rule — or random runs.
func pairPattern(rng *rand.Rand, ni int) []bool {
	p := make([]bool, ni)
	switch rng.Intn(6) {
	case 0:
	case 1:
		for i := range p {
			p[i] = true
		}
	case 2:
		for i := rng.Intn(2); i < ni; i += 2 {
			p[i] = true
		}
	case 3:
		for i := rng.Intn(3); i < ni; i += 1 + rng.Intn(2) {
			for n := 1 + rng.Intn(4); n > 0 && i < ni; n, i = n-1, i+1 {
				p[i] = true
			}
		}
	default:
		on := rng.Intn(2) == 0
		for i := 0; i < ni; on = !on {
			for n := 1 + rng.Intn(6); n > 0 && i < ni; n, i = n-1, i+1 {
				p[i] = on
			}
		}
	}
	return p
}

// The pair index must classify a visit exactly as the reference merge: the
// same live pieces with the same tap sources and windows, the same staged
// lanes and the same skip count. Inputs are two-line span structures
// (empty and full lines, one-voxel runs, spans one and two voxels apart),
// random active lists (none live, all live, random gaps), a random row
// width and an off that clips components at either end of the row or
// pushes them off it; the voxel streams are short, so in-place bases near
// either end fall back to staging.
func FuzzPairIndexMatchesMerge(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for visit := range 64 {
			ni := 1 + rng.Intn(40)
			v, _ := twoLines([2][]bool{pairPattern(rng, ni), pairPattern(rng, ni)})
			W := 1 + rng.Intn(ni+6)
			off := rng.Intn(ni+W+4) - ni - 2
			c := NewCtx(&xform.Factorization{Ni: ni, Nj: 2, Nk: 1, KStep: 1, IntW: W, IntH: 1}, v, img.NewIntermediate(W, 1))
			c.act = c.act[:0]
			switch rng.Intn(4) {
			case 0: // every pixel saturated
			case 1:
				c.act = append(c.act, pixSpan{0, W})
			default:
				for u := rng.Intn(3); u < W; {
					e := min(u+1+rng.Intn(6), W)
					c.act = append(c.act, pixSpan{u, e})
					u = e + 1 + rng.Intn(4)
				}
			}
			for _, lane := range [][]classify.Voxel{c.vlane0, c.vlane1} {
				for i := range lane {
					lane[i] = randVoxel(rng)
				}
			}
			var line [2][3][]int32
			for l := range line {
				a, b := v.SpanOff[l], v.SpanOff[l+1]
				line[l] = [3][]int32{v.SpanLo[a:b], v.SpanCnt[a:b], v.SpanVox[a:b]}
			}
			ref, got := classifyBoth(c, v.Pairs[v.PairOff[0]:v.PairOff[1]], &line, off)
			if d := diffVisit(ref, got); d != "" {
				t.Fatalf("visit %d (ni %d, W %d, off %d, spans %v / %v, components %v, active %v): %s",
					visit, ni, W, off, line[0][0], line[1][0], v.Pairs, c.act, d)
			}
		}
	})
}

// Every slice visit the pair index serves in rotations of the MRI and CT
// phantoms, in all three modes, must classify exactly as the reference
// merge does from the same state — including, where pixels saturate, visits
// whose components all lie on saturated pixels.
func TestPairIndexMatchesMergeOnPhantoms(t *testing.T) {
	sizes := []int{32, 47, 60}
	if testing.Short() {
		sizes = sizes[:1]
	}
	iso := classify.IsoTransfer(classify.DefaultIsoThreshold)
	for _, n := range sizes {
		mri, ct := vol.MRIBrain(n), vol.CTHead(n)
		for _, tc := range []struct {
			name string
			v    *vol.Volume
			tf   classify.TransferFunc
			mode rendermode.Mode
		}{
			{"mri", mri, nil, rendermode.Composite},
			{"ct", ct, classify.CTTransfer, rendermode.Composite},
			{"mri-mip", mri, nil, rendermode.MIP},
			{"ct-mip", ct, classify.CTTransfer, rendermode.MIP},
			{"mri-iso", mri, iso, rendermode.Isosurface},
			{"ct-iso", ct, iso, rendermode.Isosurface},
		} {
			cl := classify.Classify(tc.v, classify.Options{Transfer: tc.tf})
			enc := map[xform.Axis]*rle.Volume{}
			var pairVisits, dead int
			for view := range 60 {
				yaw := 2 * math.Pi * float64(view) / 60
				f := xform.Factorize(tc.v.Nx, tc.v.Ny, tc.v.Nz, xform.ViewMatrix(tc.v.Nx, tc.v.Ny, tc.v.Nz, yaw, 0.6*math.Sin(2*yaw)))
				rv := enc[f.Axis]
				if rv == nil {
					rv = rle.Encode(cl, f.Axis)
					enc[f.Axis] = rv
				}
				c := NewCtx(&f, rv, img.NewIntermediate(f.IntW, f.IntH))
				c.Mode = tc.mode
				for vRow := range f.IntH {
					visitSlices(c, vRow, func(k int, g *sliceGeom, line *[2][3][]int32) {
						if !g.have0 || !g.have1 || !g.fractional {
							return
						}
						s := k*rv.Nj + g.j0
						pairVisits++
						ref, got := classifyBoth(c, rv.Pairs[rv.PairOff[s]:rv.PairOff[s+1]], line, g.off)
						if d := diffVisit(ref, got); d != "" {
							t.Fatalf("%s %d³ view %d row %d slice %d: %s", tc.name, n, view, vRow, k, d)
						}
						if ref.skips > 0 && len(ref.live) == 0 {
							dead++
						}
					})
				}
			}
			if pairVisits == 0 || (dead == 0) != (tc.mode == rendermode.MIP) {
				t.Fatalf("%s %d³: %d pair-index visits, %d with every component dead", tc.name, n, pairVisits, dead)
			}
		}
	}
}
