package warp

import (
	"math"
	"testing"

	"shearwarp/internal/img"
	"shearwarp/internal/xform"
)

func TestRowSpanConstantV(t *testing.T) {
	// An axis-aligned view has an identity-like warp: v does not vary with
	// x along a final row (dv/dx ~ 0), exercising the degenerate branch.
	f, m := composited(t, 16, 0, 0)
	if math.Abs(f.WarpInv[3]) > 1e-9 {
		t.Skipf("warp not axis-aligned: dv/dx = %g", f.WarpInv[3])
	}
	out := img.NewFinal(f.FinalW, f.FinalH)
	ctx := NewCtx(f, m, out)
	// Band covering v in [2, 5): rows y with constant v in range are fully
	// owned, others not at all.
	owned := 0
	for y := 0; y < out.H; y++ {
		x0, x1, ok := ctx.RowSpan(y, Band{VLo: 2, VHi: 5})
		if !ok {
			continue
		}
		if x0 != 0 || x1 != out.W {
			t.Fatalf("constant-v row partially owned: [%d,%d)", x0, x1)
		}
		owned++
	}
	if owned == 0 {
		t.Fatal("no rows owned by a mid-image band")
	}
}

func TestPartitionTasksWithEmptyRegion(t *testing.T) {
	// All-equal boundaries: nothing composited, one background task.
	tasks := partitionTasks([]int{5, 5, 5})
	cover := 0
	for _, tk := range tasks {
		if tk.NeedLo <= tk.NeedHi {
			t.Fatalf("empty-region task has dependencies: %+v", tk)
		}
		cover++
	}
	if cover == 0 {
		t.Fatal("no tasks for empty region")
	}
}

func TestPartitionTasksAllEmptyButOne(t *testing.T) {
	// Bands: empty, full, empty. Coverage and ownership must hold.
	tasks := partitionTasks([]int{0, 0, 40, 40})
	sawInterior := false
	for _, tk := range tasks {
		if tk.NeedLo <= tk.NeedHi {
			if tk.NeedLo != 1 || tk.NeedHi != 1 {
				t.Fatalf("dependency outside the only non-empty band: %+v", tk)
			}
			sawInterior = true
		}
	}
	if !sawInterior {
		t.Fatal("no task depends on the non-empty band")
	}
}

func TestWarpCountersConsistent(t *testing.T) {
	f, m := composited(t, 16, 0.5, 0.3)
	out := img.NewFinal(f.FinalW, f.FinalH)
	ctx := NewCtx(f, m, out)
	var cnt Counters
	ctx.WarpTile(0, 0, out.W, out.H, &cnt)
	other := Counters{}
	other.Add(cnt)
	if other != cnt {
		t.Fatal("Add is lossy")
	}
	if cnt.Cycles < cnt.Pixels*CyclesPerPixel {
		t.Fatal("cycles below per-pixel floor")
	}
}

func TestWarpRowOutOfRange(t *testing.T) {
	f, m := composited(t, 14, 0.3, 0.2)
	out := img.NewFinal(f.FinalW, f.FinalH)
	ctx := NewCtx(f, m, out)
	var cnt Counters
	ctx.WarpTile(0, -10, out.W, 0, &cnt) // y range entirely above the image
	ctx.WarpTile(0, out.H, out.W, out.H+10, &cnt)
	if cnt.Pixels+cnt.Background != 0 {
		t.Fatal("out-of-range rows produced pixels")
	}
}

// identityFactorization hand-builds a factorization whose warp is the
// identity over the given rasters — the smallest harness that lets edge
// tests drive the bilinear gather on degenerate image sizes without a
// volume behind it.
func identityFactorization(intW, intH, finalW, finalH int) *xform.Factorization {
	id := xform.Mat3{1, 0, 0, 0, 1, 0, 0, 0, 1}
	return &xform.Factorization{
		Axis: xform.AxisZ, IntW: intW, IntH: intH,
		FinalW: finalW, FinalH: finalH,
		Warp: id, WarpInv: id, KStep: 1,
	}
}

// TestWarp1x1Intermediate warps a 1x1 intermediate image: every bilinear
// tap except (0, 0) falls outside, forcing the clamped border gather on
// the one interior pixel and the background path everywhere else.
func TestWarp1x1Intermediate(t *testing.T) {
	f := identityFactorization(1, 1, 2, 2)
	m := img.NewIntermediate(1, 1)
	m.Pix[0], m.Pix[1], m.Pix[2], m.Pix[3] = 1, 0.5, 0.25, 1 // premultiplied RGBA
	out := img.NewFinal(2, 2)
	ctx := NewCtx(f, m, out)
	var cnt Counters
	ctx.WarpTile(0, 0, out.W, out.H, &cnt)
	if cnt.Pixels+cnt.Background != int64(out.W*out.H) {
		t.Fatalf("pixels %d + background %d != %d", cnt.Pixels, cnt.Background, out.W*out.H)
	}
	// Pixel (0, 0) maps exactly onto the single intermediate pixel with
	// full weight; the identity warp makes the gather exact.
	if r, g, b := out.AtRGB(0, 0); r != 255 || g != 128 || b != 64 {
		t.Fatalf("pixel (0,0) = (%d, %d, %d), want (255, 128, 64)", r, g, b)
	}
	// Pixels whose floor coordinate leaves the intermediate image entirely
	// must be background black.
	if r, g, b := out.AtRGB(1, 1); r != 0 || g != 0 || b != 0 {
		t.Fatalf("pixel (1,1) = (%d, %d, %d), want background black", r, g, b)
	}
}

// TestWarp1x1Final warps into a 1x1 final image — the smallest tile the
// parallel warp phase can hand a worker.
func TestWarp1x1Final(t *testing.T) {
	f := identityFactorization(2, 2, 1, 1)
	m := img.NewIntermediate(2, 2)
	for i := 0; i < len(m.Pix); i += 4 {
		m.Pix[i], m.Pix[i+1], m.Pix[i+2], m.Pix[i+3] = 1, 1, 1, 1
	}
	out := img.NewFinal(1, 1)
	ctx := NewCtx(f, m, out)
	var cnt Counters
	ctx.WarpTile(0, 0, 1, 1, &cnt)
	if cnt.Pixels != 1 || cnt.Background != 0 {
		t.Fatalf("counters %+v, want exactly one interior pixel", cnt)
	}
	if r, g, b := out.AtRGB(0, 0); r != 255 || g != 255 || b != 255 {
		t.Fatalf("pixel = (%d, %d, %d), want white", r, g, b)
	}
}

// TestRowSpanDegenerateBands checks band ownership with empty (VLo ==
// VHi) and infinite bands on a sheared warp: an empty band owns nothing,
// and a band partition of (-inf, +inf) covers every pixel of every row
// exactly once.
func TestRowSpanDegenerateBands(t *testing.T) {
	f, m := composited(t, 16, 0.5, 0.3)
	out := img.NewFinal(f.FinalW, f.FinalH)
	ctx := NewCtx(f, m, out)

	for _, v := range []float64{0, 3.5, float64(f.IntH)} {
		for y := 0; y < out.H; y++ {
			if x0, x1, ok := ctx.RowSpan(y, Band{VLo: v, VHi: v}); ok {
				t.Fatalf("empty band at v=%v owns [%d, %d) of row %d", v, x0, x1, y)
			}
		}
	}

	bands := []Band{
		{VLo: math.Inf(-1), VHi: 2},
		{VLo: 2, VHi: 2}, // degenerate interior band
		{VLo: 2, VHi: 5},
		{VLo: 5, VHi: math.Inf(1)},
	}
	for y := 0; y < out.H; y++ {
		covered := make([]int, out.W)
		for _, b := range bands {
			x0, x1, ok := ctx.RowSpan(y, b)
			if !ok {
				continue
			}
			for x := x0; x < x1; x++ {
				covered[x]++
			}
		}
		for x, n := range covered {
			if n != 1 {
				t.Fatalf("row %d pixel %d covered %d times", y, x, n)
			}
		}
	}
}

// TestPartitionTasksSingleLineBands partitions with every band one
// scanline tall — all slivers. The task bands must still tile
// (-inf, +inf) without gaps or overlap, and dependencies must stay inside
// the band range.
func TestPartitionTasksSingleLineBands(t *testing.T) {
	boundaries := []int{0, 1, 2, 3}
	tasks := partitionTasks(boundaries)
	if len(tasks) == 0 {
		t.Fatal("no tasks")
	}
	if !math.IsInf(tasks[0].Band.VLo, -1) {
		t.Fatalf("first band starts at %v, want -inf", tasks[0].Band.VLo)
	}
	for i := 1; i < len(tasks); i++ {
		if tasks[i].Band.VLo != tasks[i-1].Band.VHi {
			t.Fatalf("band %d starts at %v, previous ends at %v", i, tasks[i].Band.VLo, tasks[i-1].Band.VHi)
		}
	}
	if !math.IsInf(tasks[len(tasks)-1].Band.VHi, 1) {
		t.Fatalf("last band ends at %v, want +inf", tasks[len(tasks)-1].Band.VHi)
	}
	nb := len(boundaries) - 1
	for _, tk := range tasks {
		if tk.Owner < 0 || tk.Owner >= nb {
			t.Fatalf("task owner %d outside 0..%d", tk.Owner, nb-1)
		}
		if tk.NeedLo <= tk.NeedHi && (tk.NeedLo < 0 || tk.NeedHi >= nb) {
			t.Fatalf("task depends on bands %d..%d outside 0..%d", tk.NeedLo, tk.NeedHi, nb-1)
		}
	}
}

func TestWarpCostModelIdentity(t *testing.T) {
	f, m := composited(t, 18, 0.4, 0.3)
	out := img.NewFinal(f.FinalW, f.FinalH)
	ctx := NewCtx(f, m, out)
	var cnt Counters
	ctx.WarpTile(0, 0, out.W, out.H, &cnt)
	want := cnt.Rows*CyclesPerRowSetup +
		cnt.Pixels*CyclesPerPixel +
		cnt.Background*CyclesPerBackground
	if cnt.Cycles != want {
		t.Fatalf("cycles %d != weighted events %d", cnt.Cycles, want)
	}
}
