package newalg

import (
	"fmt"
	"math"
	"testing"

	"shearwarp/internal/classify"
	"shearwarp/internal/composite"
	"shearwarp/internal/render"
	"shearwarp/internal/vol"
	"shearwarp/internal/xform"
)

// TestPlannedRegionHoldsEverySampledRow is the planner's safety claim,
// checked directly rather than through images: while the view rotates in
// steps below the re-profile angle, every scanline that composites a sample
// lies inside the region planned from the last committed profile. The skip
// is exact only if this holds, since a row outside the region is never
// composited. The sweep covers MRI and CT phantoms from 32³ to 64³, each
// principal axis, and yaw and pitch steps of several sizes, profiling at
// the planner's own cadence so plans run from profiles up to 15° stale.
//
// Dropping the ΔSj·(Nk−1) term from the drift bound fails this test.
// Dropping the bound's one row of slack does not: a row's samples already
// span its bilinear footprint, so moving every voxel by at most s rows
// moves every sampled row by at most ⌈s⌉.
func TestPlannedRegionHoldsEverySampledRow(t *testing.T) {
	const deg = math.Pi / 180
	// Starting views whose principal axis is x, y and z, each at least
	// 14° from the 45° flips so the first steps keep the axis.
	starts := map[xform.Axis][2]float64{
		xform.AxisX: {76 * deg, 8 * deg},
		xform.AxisY: {12 * deg, 74 * deg},
		xform.AxisZ: {-6 * deg, 10 * deg},
	}
	kinds := []struct {
		name string
		vol  func(int) *vol.Volume
		opt  render.Options
	}{
		{"mri", vol.MRIBrain, render.Options{}},
		{"ct", vol.CTHead, render.Options{Transfer: classify.CTTransfer}},
	}
	for _, k := range kinds {
		for _, n := range []int{32, 48, 64} {
			r := render.New(k.vol(n), k.opt)
			for axis, v0 := range starts {
				if got := r.Setup(v0[0], v0[1]).F.Axis; got != axis {
					t.Fatalf("start view %v has axis %v, want %v", v0, got, axis)
				}
				for _, step := range []float64{3, 7, 11, 14.9} {
					name := fmt.Sprintf("%s-%d/axis%d/step%.1f°", k.name, n, axis, step)
					checkRegions(t, name+"/yaw", r, v0, step*deg, false)
					checkRegions(t, name+"/pitch", r, v0, step*deg, true)
				}
			}
		}
	}
}

// checkRegions renders six frames stepping from v0, planning each one the
// way the renderers do, and fails on any sampled row outside a profiled
// plan's region. Every row is composited (not only the region's), so the
// profile recorded is the frame's true cost.
func checkRegions(t *testing.T, name string, r *render.Renderer, v0 [2]float64, step float64, pitchStep bool) {
	t.Helper()
	pl := NewPlanner(Config{Procs: 4}, 0, 0, 0)
	checked := 0
	for i := range 6 {
		yaw, pitch := v0[0], v0[1]
		if pitchStep {
			pitch += float64(i) * step
		} else {
			yaw += float64(i) * step
		}
		fr := r.Setup(yaw, pitch)
		pl.Plan(fr, yaw, pitch)
		cc := fr.NewCompositeCtx()
		var cnt composite.Counters
		for row := 0; row < fr.M.H; row++ {
			before := cnt.Samples
			cycles := cc.Scanline(row, &cnt)
			sampled := cnt.Samples != before
			if pl.Balanced && sampled && (row < pl.Region.Lo || row >= pl.Region.Hi) {
				t.Fatalf("%s frame %d: row %d composites samples outside the planned region [%d,%d) of %d rows",
					name, i, row, pl.Region.Lo, pl.Region.Hi, fr.M.H)
			}
			if pl.Profiling {
				pl.Record(row, cycles, sampled)
			}
		}
		if pl.Balanced {
			checked++
		}
		pl.Commit()
	}
	if checked == 0 {
		t.Fatalf("%s: no frame planned from a profile", name)
	}
}
