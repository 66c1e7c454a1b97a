package raycast

import (
	"testing"

	"shearwarp/internal/classify"
	"shearwarp/internal/img"
	"shearwarp/internal/render"
	"shearwarp/internal/trace"
	"shearwarp/internal/vol"
	"shearwarp/internal/xform"
)

func setup(t *testing.T, n int, yaw, pitch float64) (*Renderer, *xform.Factorization) {
	t.Helper()
	v := vol.MRIBrain(n)
	c := classify.Classify(v, classify.Options{})
	view := xform.ViewMatrix(v.Nx, v.Ny, v.Nz, yaw, pitch)
	f := xform.Factorize(v.Nx, v.Ny, v.Nz, view)
	return New(c), &f
}

func TestRenderProducesImage(t *testing.T) {
	r, f := setup(t, 24, 0.4, 0.3)
	var cnt Counters
	out := r.Render(f, &cnt)
	if out.NonBlackCount() == 0 {
		t.Fatal("ray-cast image is all black")
	}
	if cnt.Rays != int64(out.W*out.H) {
		t.Fatalf("rays = %d, want one per pixel (%d)", cnt.Rays, out.W*out.H)
	}
	if cnt.Composites == 0 || cnt.Resamples == 0 {
		t.Fatalf("no samples: %+v", cnt)
	}
}

func TestLoopingDominatesForRayCaster(t *testing.T) {
	// Figure 2's key contrast: the ray caster's looping time exceeds its
	// compositing time, while the shear warper's does not.
	r, f := setup(t, 32, 0.4, 0.2)
	var cnt Counters
	r.Render(f, &cnt)
	if cnt.LoopingCycles() <= cnt.CompositeCycles() {
		t.Fatalf("looping %d <= compositing %d; ray caster should be loop-bound",
			cnt.LoopingCycles(), cnt.CompositeCycles())
	}
}

func TestEarlyTerminationAndLeaping(t *testing.T) {
	r, f := setup(t, 32, 0.3, 0.3)
	var cnt Counters
	r.Render(f, &cnt)
	if cnt.Leaps == 0 {
		t.Fatal("no space leaps through the empty surround")
	}
	// Without leaping and termination, steps would be ~rays * ray length.
	if cnt.Steps >= cnt.Rays*int64(f.Nk) {
		t.Fatalf("steps %d suggest no acceleration (rays %d, depth %d)",
			cnt.Steps, cnt.Rays, f.Nk)
	}
}

func TestImageResemblesShearWarp(t *testing.T) {
	// Same classified volume, same raster: the two renderers differ only in
	// resampling order, so the images must be closely similar (not equal).
	v := vol.MRIBrain(24)
	r := render.New(v, render.Options{})
	swOut, _ := r.RenderSerial(0.4, 0.25)

	rc := New(r.Classified)
	fr := r.Setup(0.4, 0.25)
	var cnt Counters
	rcOut := rc.Render(&fr.F, &cnt)

	if rcOut.W != swOut.W || rcOut.H != swOut.H {
		t.Fatalf("raster mismatch: %dx%d vs %dx%d", rcOut.W, rcOut.H, swOut.W, swOut.H)
	}
	d := img.Compare(swOut, rcOut)
	if d.RMSE > 40 {
		t.Fatalf("ray-cast image too different from shear-warp: %+v", d)
	}
	// And both should put content in roughly the same amount of pixels.
	sw, rcN := swOut.NonBlackCount(), rcOut.NonBlackCount()
	if rcN < sw/2 || rcN > sw*2 {
		t.Fatalf("content mismatch: shear-warp %d pixels, ray-cast %d", sw, rcN)
	}
}

func TestEmptyVolumeFastAndBlack(t *testing.T) {
	c := &classify.Classified{Nx: 32, Ny: 32, Nz: 32,
		Voxels: make([]classify.Voxel, 32*32*32), MinOpacity: 4}
	view := xform.ViewMatrix(32, 32, 32, 0.4, 0.2)
	f := xform.Factorize(32, 32, 32, view)
	r := New(c)
	var cnt Counters
	out := r.Render(&f, &cnt)
	if out.NonBlackCount() != 0 {
		t.Fatal("empty volume rendered non-black pixels")
	}
	if cnt.Resamples != 0 {
		t.Fatalf("empty volume took %d resamples; leaping should skip all", cnt.Resamples)
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{Cycles: 5, Rays: 1, Leaps: 2}
	a.Add(Counters{Cycles: 7, Steps: 3})
	if a.Cycles != 12 || a.Rays != 1 || a.Steps != 3 || a.Leaps != 2 {
		t.Fatalf("Add result %+v", a)
	}
}

func TestRayCastCostModelIdentity(t *testing.T) {
	r, f := setup(t, 20, 0.4, 0.3)
	var cnt Counters
	r.Render(f, &cnt)
	want := cnt.Rays*CyclesPerRaySetup +
		cnt.Steps*CyclesPerStep +
		cnt.Descends*CyclesPerDescend +
		cnt.Leaps*CyclesPerLeap +
		cnt.Resamples*(CyclesPerAddress+CyclesPerResample) +
		cnt.Composites*CyclesPerComposite
	if cnt.Cycles != want {
		t.Fatalf("cycles %d != weighted events %d", cnt.Cycles, want)
	}
}

func TestTracedTileMatchesUntraced(t *testing.T) {
	r, f := setup(t, 20, 0.5, 0.3)
	plain := img.NewFinal(f.FinalW, f.FinalH)
	traced := img.NewFinal(f.FinalW, f.FinalH)
	var c1, c2 Counters
	r.RenderTile(f, plain, 0, 0, plain.W, plain.H, &c1)

	sp := trace.NewAddrSpace()
	finalArr := sp.Register("final", 4, traced.W*traced.H)
	tc := r.RegisterArrays(sp, finalArr)
	ct := &trace.CountingTracer{}
	tc.Tracer = ct
	r.RenderTileTraced(f, traced, 0, 0, traced.W, traced.H, &c2, &tc)

	if !img.Equal(plain, traced) {
		t.Fatal("tracing changed the rendered image")
	}
	if c1.Rays != c2.Rays || c1.Resamples != c2.Resamples || c1.Composites != c2.Composites {
		t.Fatalf("counters diverge: %+v vs %+v", c1, c2)
	}
	if ct.Reads == 0 || ct.Writes == 0 {
		t.Fatalf("tracer saw %d reads %d writes", ct.Reads, ct.Writes)
	}
	// Octree levels registered one array per level.
	if len(tc.Tree) != r.Tree.Height() {
		t.Fatalf("registered %d tree levels, want %d", len(tc.Tree), r.Tree.Height())
	}
}

func TestTracedNilFallsBack(t *testing.T) {
	r, f := setup(t, 14, 0.4, 0.2)
	a := img.NewFinal(f.FinalW, f.FinalH)
	b := img.NewFinal(f.FinalW, f.FinalH)
	var c1, c2 Counters
	r.RenderTile(f, a, 0, 0, a.W, a.H, &c1)
	r.RenderTileTraced(f, b, 0, 0, b.W, b.H, &c2, nil)
	if !img.Equal(a, b) {
		t.Fatal("nil trace context changed behaviour")
	}
}

func TestBackFacingViewRenders(t *testing.T) {
	// Yaw past 90 degrees: rays enter from the other side; the image must
	// still show the head.
	r, f := setup(t, 20, 2.4, -0.3)
	var cnt Counters
	out := r.Render(f, &cnt)
	if out.NonBlackCount() == 0 {
		t.Fatal("back-facing view rendered black")
	}
}
