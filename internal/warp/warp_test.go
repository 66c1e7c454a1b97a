package warp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"shearwarp/internal/classify"
	"shearwarp/internal/composite"
	"shearwarp/internal/img"
	"shearwarp/internal/rle"
	"shearwarp/internal/vol"
	"shearwarp/internal/xform"
)

// composited builds a factorization and a composited intermediate image for
// the MRI phantom at the given view.
func composited(t testing.TB, n int, yaw, pitch float64) (*xform.Factorization, *img.Intermediate) {
	t.Helper()
	v := vol.MRIBrain(n)
	c := classify.Classify(v, classify.Options{})
	view := xform.ViewMatrix(v.Nx, v.Ny, v.Nz, yaw, pitch)
	f := xform.Factorize(v.Nx, v.Ny, v.Nz, view)
	rv := rle.Encode(c, f.Axis)
	m := img.NewIntermediate(f.IntW, f.IntH)
	ctx := composite.NewCtx(&f, rv, m)
	var cnt composite.Counters
	for vRow := 0; vRow < m.H; vRow++ {
		ctx.Scanline(vRow, &cnt)
	}
	return &f, m
}

func TestWarpProducesImage(t *testing.T) {
	f, m := composited(t, 20, 0.4, 0.3)
	out := img.NewFinal(f.FinalW, f.FinalH)
	ctx := NewCtx(f, m, out)
	var cnt Counters
	ctx.WarpTile(0, 0, out.W, out.H, &cnt)
	if out.NonBlackCount() == 0 {
		t.Fatal("warped image is entirely black")
	}
	if cnt.Pixels == 0 || cnt.Background == 0 {
		t.Fatalf("counters: %+v; want both interior and background pixels", cnt)
	}
	if cnt.Pixels+cnt.Background != int64(out.W*out.H) {
		t.Fatalf("pixels %d + background %d != image %d",
			cnt.Pixels, cnt.Background, out.W*out.H)
	}
}

func TestTilesEqualWholeImage(t *testing.T) {
	f, m := composited(t, 18, 0.7, -0.4)
	whole := img.NewFinal(f.FinalW, f.FinalH)
	tiled := img.NewFinal(f.FinalW, f.FinalH)
	var cnt Counters
	NewCtx(f, m, whole).WarpTile(0, 0, whole.W, whole.H, &cnt)
	ctx := NewCtx(f, m, tiled)
	const ts = 7
	for y0 := 0; y0 < tiled.H; y0 += ts {
		for x0 := 0; x0 < tiled.W; x0 += ts {
			ctx.WarpTile(x0, y0, x0+ts, y0+ts, &cnt)
		}
	}
	if !img.Equal(whole, tiled) {
		t.Fatal("tiled warp differs from whole-image warp")
	}
}

func TestTasksCoverEveryPixelExactlyOnce(t *testing.T) {
	f, m := composited(t, 18, 0.5, 0.35)
	H := m.H
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		p := 1 + rng.Intn(8)
		boundaries := randomBoundaries(rng, H, p)
		tasks := partitionTasks(boundaries)
		out := img.NewFinal(f.FinalW, f.FinalH)
		ctx := NewCtx(f, m, out)
		cover := make([]int, out.W*out.H)
		for _, tk := range tasks {
			for y := 0; y < out.H; y++ {
				x0, x1, ok := ctx.RowSpan(y, tk.Band)
				if !ok {
					continue
				}
				for x := x0; x < x1; x++ {
					cover[y*out.W+x]++
				}
			}
		}
		for i, c := range cover {
			if c != 1 {
				t.Fatalf("trial %d boundaries %v: pixel %d covered %d times",
					trial, boundaries, i, c)
			}
		}
	}
}

// randomBoundaries builds monotone partition boundaries over [0, h) that
// may contain empty bands.
func randomBoundaries(rng *rand.Rand, h, p int) []int {
	bd := make([]int, p+1)
	bd[p] = h
	for i := 1; i < p; i++ {
		bd[i] = rng.Intn(h + 1)
	}
	for i := 1; i <= p; i++ {
		if bd[i] < bd[i-1] {
			bd[i] = bd[i-1]
		}
	}
	return bd
}

func TestBandWarpEqualsTileWarp(t *testing.T) {
	for _, view := range []struct{ yaw, pitch float64 }{
		{0, 0}, {0.5, 0.35}, {2.8, -0.6}, {1.2, 0.9},
	} {
		f, m := composited(t, 18, view.yaw, view.pitch)
		ref := img.NewFinal(f.FinalW, f.FinalH)
		var cnt Counters
		NewCtx(f, m, ref).WarpTile(0, 0, ref.W, ref.H, &cnt)

		got := img.NewFinal(f.FinalW, f.FinalH)
		ctx := NewCtx(f, m, got)
		H := m.H
		boundaries := []int{0, H / 3, H - H/5, H}
		for _, tk := range partitionTasks(boundaries) {
			for y := 0; y < got.H; y++ {
				if x0, x1, ok := ctx.RowSpan(y, tk.Band); ok {
					ctx.WarpSpan(y, x0, x1, &cnt)
				}
			}
		}
		if !img.Equal(ref, got) {
			d := img.Compare(ref, got)
			t.Fatalf("view %+v: band warp differs from tile warp: %+v", view, d)
		}
	}
}

// Every composited row a task's bilinear interpolation can read must lie in
// a band the task declares as a dependency — the invariant that makes
// barrier elimination safe.
func TestTaskReadsWithinDeclaredNeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		h := 2 + rng.Intn(60)
		p := 1 + rng.Intn(8)
		boundaries := randomBoundaries(rng, h, p)
		lo, hi := boundaries[0], boundaries[p]
		bandOf := func(row int) int {
			for b := 0; b < p; b++ {
				if row >= boundaries[b] && row < boundaries[b+1] {
					return b
				}
			}
			return -1
		}
		for _, tk := range partitionTasks(boundaries) {
			// Sample v values in the band and check the rows they read.
			for s := 0; s < 50; s++ {
				vLo := math.Max(tk.Band.VLo, -3)
				vHi := math.Min(tk.Band.VHi, float64(h)+3)
				if vLo >= vHi {
					continue
				}
				v := vLo + rng.Float64()*(vHi-vLo)
				if v >= tk.Band.VHi {
					continue
				}
				for _, row := range []int{int(math.Floor(v)), int(math.Floor(v)) + 1} {
					if row < lo || row >= hi {
						continue // outside composited region: always zero
					}
					b := bandOf(row)
					if b < 0 {
						t.Fatalf("row %d in region but no band: %v", row, boundaries)
					}
					if b < tk.NeedLo || b > tk.NeedHi {
						t.Fatalf("trial %d boundaries %v: task %+v reads row %d of band %d outside needs",
							trial, boundaries, tk, row, b)
					}
				}
			}
		}
	}
}

func TestSliverOwnershipRule(t *testing.T) {
	// Bands of 10 and 30 lines: the sliver at their boundary goes to the
	// 10-line processor.
	tasks := partitionTasks([]int{0, 10, 40})
	var sliver *Task
	for i := range tasks {
		if tasks[i].Sliver {
			sliver = &tasks[i]
		}
	}
	if sliver == nil {
		t.Fatal("no sliver task generated")
	}
	if sliver.Owner != 0 {
		t.Fatalf("sliver owner = %d, want 0 (fewer lines)", sliver.Owner)
	}
	if sliver.Band.VLo != 9-edgeGuard || sliver.Band.VHi != 10+edgeGuard {
		t.Fatalf("sliver band = %+v, want [9,10) widened by edgeGuard", sliver.Band)
	}
	if sliver.NeedLo != 0 || sliver.NeedHi != 1 {
		t.Fatalf("sliver needs = [%d,%d], want [0,1]", sliver.NeedLo, sliver.NeedHi)
	}

	// Reversed sizes: sliver goes to processor 1.
	tasks = partitionTasks([]int{0, 30, 40})
	for _, tk := range tasks {
		if tk.Sliver && tk.Owner != 1 {
			t.Fatalf("sliver owner = %d, want 1", tk.Owner)
		}
	}
}

func TestInteriorTasksNeedOnlyOwnBand(t *testing.T) {
	tasks := partitionTasks([]int{0, 20, 40, 60})
	interior := 0
	for _, tk := range tasks {
		if tk.Sliver {
			continue
		}
		if tk.NeedLo > tk.NeedHi {
			continue // background-only
		}
		if tk.NeedLo != tk.NeedHi {
			t.Fatalf("interior task %+v needs multiple bands", tk)
		}
		if tk.Owner != tk.NeedLo {
			t.Fatalf("interior task %+v not owned by its band", tk)
		}
		interior++
	}
	if interior != 3 {
		t.Fatalf("interior tasks = %d, want 3", interior)
	}
}

func TestSingleProcessorSingleTask(t *testing.T) {
	tasks := partitionTasks([]int{0, 50})
	if len(tasks) != 1 {
		t.Fatalf("tasks = %d, want 1", len(tasks))
	}
	if !math.IsInf(tasks[0].Band.VLo, -1) || !math.IsInf(tasks[0].Band.VHi, 1) {
		t.Fatal("single task must cover the whole v axis")
	}
}

func TestRowSpanRespectsBand(t *testing.T) {
	f, m := composited(t, 16, 0.6, 0.2)
	out := img.NewFinal(f.FinalW, f.FinalH)
	ctx := NewCtx(f, m, out)
	rng := rand.New(rand.NewSource(8))
	inv := &f.WarpInv
	for trial := 0; trial < 40; trial++ {
		vLo := rng.Float64() * float64(m.H)
		vHi := vLo + rng.Float64()*20
		b := Band{VLo: vLo, VHi: vHi}
		for y := 0; y < out.H; y += 3 {
			x0, x1, ok := ctx.RowSpan(y, b)
			if !ok {
				continue
			}
			for _, x := range []int{x0, x1 - 1} {
				v := inv[3]*float64(x) + inv[4]*float64(y) + inv[5]
				if v < vLo-1e-6 || v >= vHi+1e-6 {
					t.Fatalf("row %d x %d: v=%g outside band [%g,%g)", y, x, v, vLo, vHi)
				}
			}
		}
	}
}

func TestQuant255(t *testing.T) {
	if quant255(0) != 0 || quant255(1) != 255 {
		t.Fatal("quant endpoints wrong")
	}
	if quant255(-0.5) != 0 || quant255(2.0) != 255 {
		t.Fatal("quant does not clamp")
	}
	if quant255(0.5) != 128 {
		t.Fatalf("quant255(0.5) = %d, want 128", quant255(0.5))
	}
}

func TestWarpSpanClipsToImage(t *testing.T) {
	f, m := composited(t, 14, 0.3, 0.3)
	out := img.NewFinal(f.FinalW, f.FinalH)
	ctx := NewCtx(f, m, out)
	var cnt Counters
	ctx.WarpSpan(0, -100, out.W+100, &cnt) // must not panic
	ctx.WarpSpan(0, 50, 10, &cnt)          // empty span: no work
	if cnt.Rows != 1 {
		t.Fatalf("rows = %d, want 1 (empty span skipped)", cnt.Rows)
	}
}

// quick-driven property: for arbitrary monotone boundaries, tasks cover the
// v axis exactly and owners are valid processors.
// partitionTasks builds the warp tasks of a partition with a fresh builder.
func partitionTasks(boundaries []int) []Task {
	var tb TaskBuilder
	return tb.Partition(boundaries)
}

func TestPartitionTasksQuick(t *testing.T) {
	f := func(raw []uint8, procs uint8) bool {
		p := int(procs)%8 + 1
		h := 1
		for _, r := range raw {
			h += int(r) % 8
		}
		rng := rand.New(rand.NewSource(int64(len(raw)*31 + p)))
		bd := randomBoundaries(rng, h, p)
		tasks := partitionTasks(bd)
		// Bands tile (-inf, inf): sorted by VLo, adjacent edges touch.
		for i, tk := range tasks {
			if tk.Owner < 0 || tk.Owner >= p {
				return false
			}
			if i == 0 {
				if !math.IsInf(tk.Band.VLo, -1) {
					return false
				}
			} else if tasks[i-1].Band.VHi != tk.Band.VLo {
				return false
			}
			if tk.Band.VLo >= tk.Band.VHi {
				return false
			}
		}
		return math.IsInf(tasks[len(tasks)-1].Band.VHi, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
