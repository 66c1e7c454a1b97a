package composite

import (
	"math"
	"testing"

	"shearwarp/internal/classify"
	"shearwarp/internal/img"
	"shearwarp/internal/rle"
	"shearwarp/internal/trace"
	"shearwarp/internal/vol"
	"shearwarp/internal/xform"
)

// referenceComposite is a brute-force compositor: for every intermediate
// pixel it walks all slices front to back, bilinearly resamples the
// classified volume directly (no RLE, no skip links), and blends with the
// identical float32 arithmetic as the kernel, including the early-
// termination threshold and the tiny-alpha epsilon. Pixel values must be
// bit-identical to the kernel's.
func referenceComposite(f *xform.Factorization, c *classify.Classified, m *img.Intermediate) {
	voxAt := func(i, j, k int) classify.Voxel {
		if i < 0 || j < 0 || i >= f.Ni || j >= f.Nj {
			return 0
		}
		x, y, z := xform.ObjectIndex(f.Axis, i, j, k)
		v := c.Voxels[(z*c.Ny+y)*c.Nx+x]
		if classify.Opacity(v) < c.MinOpacity {
			return 0
		}
		return v
	}
	for vRow := 0; vRow < m.H; vRow++ {
		for u := 0; u < m.W; u++ {
			p := 4 * (vRow*m.W + u)
			for idx := 0; idx < f.Nk; idx++ {
				if m.Pix[p+3] >= img.OpacityThreshold {
					break
				}
				k := f.KFront + idx*f.KStep
				tu, tv := f.SliceShift(k)
				y := float64(vRow) - tv
				j0 := int(math.Floor(y))
				wy := y - float64(j0)
				if j0 < -1 || j0 >= f.Nj {
					continue
				}
				tuInt := int(math.Floor(tu))
				tuFrac := tu - float64(tuInt)
				off := tuInt
				wx := 0.0
				if tuFrac > 0 {
					off = tuInt + 1
					wx = 1 - tuFrac
				}
				w00 := float32((1 - wx) * (1 - wy))
				w10 := float32(wx * (1 - wy))
				w01 := float32((1 - wx) * wy)
				w11 := float32(wx * wy)
				i0 := u - off
				var v00, v10, v01, v11 classify.Voxel
				v00 = voxAt(i0, j0, k)
				v10 = voxAt(i0+1, j0, k)
				if wy > 0 {
					v01 = voxAt(i0, j0+1, k)
					v11 = voxAt(i0+1, j0+1, k)
				}
				if wy >= 1 || j0 < 0 {
					v00, v10 = 0, 0
				}
				aa := w00*alphaOf(v00) + w10*alphaOf(v10) + w01*alphaOf(v01) + w11*alphaOf(v11)
				if aa < 1.0/512 {
					continue
				}
				var ar, ag, ab float32
				accum := func(w float32, v classify.Voxel) {
					if v == 0 || w == 0 {
						return
					}
					a := w * float32(v>>24) * (1.0 / 255)
					ar += a * float32((v>>16)&0xff)
					ag += a * float32((v>>8)&0xff)
					ab += a * float32(v&0xff)
				}
				accum(w00, v00)
				accum(w10, v10)
				accum(w01, v01)
				accum(w11, v11)
				t := 1 - m.Pix[p+3]
				m.Pix[p] += t * ar * (1.0 / 255)
				m.Pix[p+1] += t * ag * (1.0 / 255)
				m.Pix[p+2] += t * ab * (1.0 / 255)
				m.Pix[p+3] += t * aa
			}
		}
	}
}

func setup(t *testing.T, n int, yaw, pitch float64) (*xform.Factorization, *classify.Classified, *rle.Volume) {
	t.Helper()
	v := vol.MRIBrain(n)
	c := classify.Classify(v, classify.Options{})
	view := xform.ViewMatrix(v.Nx, v.Ny, v.Nz, yaw, pitch)
	f := xform.Factorize(v.Nx, v.Ny, v.Nz, view)
	rv := rle.Encode(c, f.Axis)
	return &f, c, rv
}

func TestKernelMatchesReference(t *testing.T) {
	for _, view := range []struct{ yaw, pitch float64 }{
		{0, 0},        // axis-aligned, zero shear
		{0.35, 0.2},   // generic small rotation
		{0.78, -0.45}, // near-45-degree shear
		{2.6, 0.1},    // back-facing principal axis
		{1.5708, 0.0}, // principal axis x
		{0.1, 1.4},    // principal axis y
		{-0.9, -1.2},  // negative shears
	} {
		f, c, rv := setup(t, 20, view.yaw, view.pitch)
		m := img.NewIntermediate(f.IntW, f.IntH)
		ctx := NewCtx(f, rv, m)
		var cnt Counters
		for vRow := 0; vRow < m.H; vRow++ {
			ctx.Scanline(vRow, &cnt)
		}
		ref := img.NewIntermediate(f.IntW, f.IntH)
		referenceComposite(f, c, ref)
		for i := range m.Pix {
			if m.Pix[i] != ref.Pix[i] {
				t.Fatalf("view %+v: pixel float %d differs: kernel %g ref %g",
					view, i, m.Pix[i], ref.Pix[i])
			}
		}
		if cnt.Samples == 0 {
			t.Fatalf("view %+v: kernel composited no samples", view)
		}
	}
}

func TestScanlinesAreIndependent(t *testing.T) {
	// Compositing rows in any order yields the same image: the property
	// that makes intermediate-scanline tasks parallel without locks.
	f, _, rv := setup(t, 16, 0.4, 0.25)
	a := img.NewIntermediate(f.IntW, f.IntH)
	b := img.NewIntermediate(f.IntW, f.IntH)
	ctxA := NewCtx(f, rv, a)
	ctxB := NewCtx(f, rv, b)
	var cnt Counters
	for vRow := 0; vRow < a.H; vRow++ {
		ctxA.Scanline(vRow, &cnt)
	}
	for vRow := b.H - 1; vRow >= 0; vRow-- {
		ctxB.Scanline(vRow, &cnt)
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatalf("row order changed pixel %d: %g vs %g", i, a.Pix[i], b.Pix[i])
		}
	}
}

func TestEmptyVolumeCompositesNothing(t *testing.T) {
	c := &classify.Classified{Nx: 12, Ny: 12, Nz: 12,
		Voxels: make([]classify.Voxel, 12*12*12), MinOpacity: 4}
	view := xform.ViewMatrix(12, 12, 12, 0.3, 0.3)
	f := xform.Factorize(12, 12, 12, view)
	rv := rle.Encode(c, f.Axis)
	m := img.NewIntermediate(f.IntW, f.IntH)
	ctx := NewCtx(&f, rv, m)
	var cnt Counters
	for vRow := 0; vRow < m.H; vRow++ {
		ctx.Scanline(vRow, &cnt)
	}
	if cnt.Samples != 0 {
		t.Fatalf("empty volume composited %d samples", cnt.Samples)
	}
	for i, p := range m.Pix {
		if p != 0 {
			t.Fatalf("empty volume wrote pixel float %d", i)
		}
	}
}

func TestOpaqueVolumeTerminatesEarly(t *testing.T) {
	// A solid fully-opaque volume saturates pixels on the first slice or
	// two; early ray termination must prevent visiting most slices' voxels.
	nv := vol.New(16, 16, 16)
	for i := range nv.Data {
		nv.Data[i] = 255
	}
	c := classify.Classify(nv, classify.Options{})
	view := xform.ViewMatrix(16, 16, 16, 0, 0)
	f := xform.Factorize(16, 16, 16, view)
	rv := rle.Encode(c, f.Axis)
	m := img.NewIntermediate(f.IntW, f.IntH)
	ctx := NewCtx(&f, rv, m)
	var cnt Counters
	for vRow := 0; vRow < m.H; vRow++ {
		ctx.Scanline(vRow, &cnt)
	}
	// Upper bound if no ET: W*H*Nk samples. With ET we need only a few
	// slices' worth.
	maxNoET := int64(f.IntW * f.IntH * f.Nk)
	if cnt.Samples*4 > maxNoET {
		t.Fatalf("early termination ineffective: %d samples vs %d without ET",
			cnt.Samples, maxNoET)
	}
	if cnt.Skips == 0 {
		t.Fatal("no skip-link traversals on an opaque volume")
	}
}

func TestCountersAndProfilePositive(t *testing.T) {
	f, _, rv := setup(t, 16, 0.4, 0.2)
	m := img.NewIntermediate(f.IntW, f.IntH)
	ctx := NewCtx(f, rv, m)
	var cnt Counters
	var total int64
	profile := make([]int64, m.H)
	for vRow := 0; vRow < m.H; vRow++ {
		profile[vRow] = ctx.Scanline(vRow, &cnt)
		total += profile[vRow]
	}
	if total != cnt.Cycles {
		t.Fatalf("per-line cycles sum %d != counter total %d", total, cnt.Cycles)
	}
	// The profile must be hump-shaped-ish: center rows cost more than edges.
	mid := profile[m.H/2]
	if mid <= profile[0] || mid <= profile[m.H-1] {
		t.Fatalf("profile not centered: edge %d/%d, mid %d", profile[0], profile[m.H-1], mid)
	}
	if cnt.LoopingCycles() <= 0 {
		t.Fatal("looping cycles should be positive")
	}
	if cnt.LoopingCycles() >= cnt.Cycles {
		t.Fatal("looping cycles should be less than total")
	}
}

func TestAddCounters(t *testing.T) {
	a := Counters{Cycles: 10, Samples: 2, Runs: 3}
	b := Counters{Cycles: 5, Samples: 1, Skips: 7}
	a.Add(b)
	if a.Cycles != 15 || a.Samples != 3 || a.Skips != 7 || a.Runs != 3 {
		t.Fatalf("Add result %+v", a)
	}
}

func TestTracerSeesVolumeAndImageArrays(t *testing.T) {
	f, _, rv := setup(t, 16, 0.4, 0.2)
	m := img.NewIntermediate(f.IntW, f.IntH)
	ctx := NewCtx(f, rv, m)
	s := trace.NewAddrSpace()
	ctx.Arrays = RegisterArrays(s, rv, m)
	tr := &trace.CountingTracer{}
	ctx.Tracer = tr
	var cnt Counters
	for vRow := 0; vRow < m.H; vRow++ {
		ctx.Scanline(vRow, &cnt)
	}
	if tr.Reads == 0 || tr.Writes == 0 {
		t.Fatalf("tracer saw %d reads, %d writes", tr.Reads, tr.Writes)
	}
	// Every composited sample must imply at least a pixel write element.
	if tr.WriteElems < cnt.Samples/4 {
		t.Fatalf("write elements %d implausibly low for %d samples", tr.WriteElems, cnt.Samples)
	}
}

// The untraced path charges the reference walk's counters without walking
// it: unreachable slices in bulk, run headers and voxels from the offset
// tables, skip links from the active list. Images and every counter must
// equal the traced walk's, row by row — over a full rotation of a non-cubic
// volume, so every principal axis, both traversal directions and the
// image-edge rows only a few slices reach all occur, and over pitched views
// of an opaque block. The intermediate image is a column wider than any
// slice covers, so no row ever saturates whole by itself; the block's images
// start with the uncovered columns marked opaque, as a row handed over
// part-composited would be, and then whole rows do saturate — some while
// slices that cannot reach them are still to come.
func TestTracedAndUntracedImagesIdentical(t *testing.T) {
	var rotation, pitched [][2]float64
	for deg := 0; deg < 360; deg += 15 {
		rad := float64(deg) * math.Pi / 180
		rotation = append(rotation, [2]float64{rad, 0.9 * math.Sin(2*rad)})
	}
	for _, pitch := range []float64{-0.55, -0.45, -0.2, 0.05, 0.5, 0.75} {
		pitched = append(pitched, [2]float64{0, pitch}, [2]float64{math.Pi, pitch}, [2]float64{0.02, pitch})
	}
	block := func(density uint8) *vol.Volume {
		v := vol.New(40, 56, 24)
		for i := range v.Data {
			v.Data[i] = density
		}
		return v
	}
	for _, tc := range []struct {
		name    string
		v       *vol.Volume
		views   [][2]float64
		premark bool
	}{
		{"mri-rotation", vol.MRIBrainDims(40, 56, 24), rotation, false},
		{"opaque-block-pitched", block(255), pitched, true},
		{"dense-block-pitched", block(120), pitched, true},
	} {
		c := classify.Classify(tc.v, classify.Options{})
		enc := map[xform.Axis]*rle.Volume{}
		var total Counters
		for _, view := range tc.views {
			f := xform.Factorize(tc.v.Nx, tc.v.Ny, tc.v.Nz, xform.ViewMatrix(tc.v.Nx, tc.v.Ny, tc.v.Nz, view[0], view[1]))
			rv := enc[f.Axis]
			if rv == nil {
				rv = rle.Encode(c, f.Axis)
				enc[f.Axis] = rv
			}
			a := img.NewIntermediate(f.IntW, f.IntH)
			b := img.NewIntermediate(f.IntW, f.IntH)
			ctxA := NewCtx(&f, rv, a)
			ctxB := NewCtx(&f, rv, b)
			s := trace.NewAddrSpace()
			ctxB.Arrays = RegisterArrays(s, rv, b)
			ctxB.Tracer = &trace.CountingTracer{}
			fullRows := 0
			for vRow := 0; vRow < a.H; vRow++ {
				if tc.premark {
					from := f.Ni - 1
					if vRow%7 == 3 {
						from = 0 // every seventh row arrives wholly opaque
					}
					for u := from; u < a.W; u++ {
						a.MarkOpaque(u, vRow)
						b.MarkOpaque(u, vRow)
					}
				}
				var cntA, cntB Counters
				cyA := ctxA.Scanline(vRow, &cntA)
				cyB := ctxB.Scanline(vRow, &cntB)
				if cntA != cntB || cyA != cyB {
					t.Fatalf("%s view %v (axis %v, KStep %d) row %d of %d: untraced counters %+v, traced %+v",
						tc.name, view, f.Axis, f.KStep, vRow, a.H, cntA, cntB)
				}
				total.Add(cntA)
				if a.RowOpaqueCount(vRow) == a.W {
					fullRows++
				}
			}
			if tc.premark && fullRows == 0 {
				t.Fatalf("%s view %v: no row saturated whole", tc.name, view)
			}
			for i := range a.Pix {
				if a.Pix[i] != b.Pix[i] {
					t.Fatalf("%s view %v: tracing changed the rendered image", tc.name, view)
				}
			}
			// Link values differ (the traced walk compresses paths); the
			// opacity state they encode must not.
			for i := range a.Links {
				if (a.Links[i] > 0) != (b.Links[i] > 0) {
					t.Fatalf("%s view %v: tracing changed which pixels are opaque", tc.name, view)
				}
			}
		}
		if total.Samples == 0 || total.Skips == 0 {
			t.Fatalf("%s: %d samples, %d skips — nothing compared", tc.name, total.Samples, total.Skips)
		}
	}
}

// The cycle counter must equal the weighted sum of its event counters —
// the cost model is exact, not approximate.
func TestCostModelIdentity(t *testing.T) {
	f, _, rv := setup(t, 24, 0.6, 0.3)
	m := img.NewIntermediate(f.IntW, f.IntH)
	ctx := NewCtx(f, rv, m)
	var cnt Counters
	for vRow := 0; vRow < m.H; vRow++ {
		ctx.Scanline(vRow, &cnt)
	}
	want := cnt.Scanlines*CyclesPerLineSetup +
		cnt.Slices*CyclesPerSliceSetup +
		cnt.Samples*CyclesPerSample +
		cnt.EmptyPixels*CyclesPerEmptyPixel +
		cnt.Skips*CyclesPerSkip +
		cnt.Runs*CyclesPerRun +
		cnt.VoxelsRead*CyclesPerVoxelCopy
	if cnt.Cycles != want {
		t.Fatalf("cycles %d != weighted events %d", cnt.Cycles, want)
	}
}

// Exactly-45-degree views sit on the principal-axis tie: the kernel must
// agree with the brute-force reference there too.
func TestKernelAt45Degrees(t *testing.T) {
	for _, view := range []struct{ yaw, pitch float64 }{
		{math.Pi / 4, 0}, {-math.Pi / 4, 0}, {math.Pi / 4, math.Pi / 4},
	} {
		f, c, rv := setup(t, 16, view.yaw, view.pitch)
		m := img.NewIntermediate(f.IntW, f.IntH)
		ctx := NewCtx(f, rv, m)
		var cnt Counters
		for vRow := 0; vRow < m.H; vRow++ {
			ctx.Scanline(vRow, &cnt)
		}
		ref := img.NewIntermediate(f.IntW, f.IntH)
		referenceComposite(f, c, ref)
		for i := range m.Pix {
			if m.Pix[i] != ref.Pix[i] {
				t.Fatalf("view %+v: pixel %d differs at the axis tie", view, i)
			}
		}
	}
}

func TestHighMinOpacityThreshold(t *testing.T) {
	// Classify with a high threshold: the RLE drops faint voxels and the
	// kernel must agree with the reference, which applies the same rule.
	v := vol.MRIBrain(16)
	c := classify.Classify(v, classify.Options{MinOpacity: 100})
	view := xform.ViewMatrix(v.Nx, v.Ny, v.Nz, 0.4, 0.3)
	f := xform.Factorize(v.Nx, v.Ny, v.Nz, view)
	rv := rle.Encode(c, f.Axis)
	m := img.NewIntermediate(f.IntW, f.IntH)
	ctx := NewCtx(&f, rv, m)
	var cnt Counters
	for vRow := 0; vRow < m.H; vRow++ {
		ctx.Scanline(vRow, &cnt)
	}
	ref := img.NewIntermediate(f.IntW, f.IntH)
	referenceComposite(&f, c, ref)
	for i := range m.Pix {
		if m.Pix[i] != ref.Pix[i] {
			t.Fatalf("pixel %d differs with MinOpacity=100", i)
		}
	}
}
