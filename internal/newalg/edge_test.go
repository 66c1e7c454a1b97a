package newalg

import (
	"math"
	"testing"

	"shearwarp/internal/img"
	"shearwarp/internal/render"
	"shearwarp/internal/vol"
)

func TestMoreProcsThanScanlines(t *testing.T) {
	r := render.New(vol.MRIBrain(10), render.Options{})
	want, _ := r.RenderSerial(0.4, 0.2)
	nr := NewRenderer(r, Config{Procs: 64})
	res := nr.RenderFrame(0.4, 0.2)
	if !img.Equal(want, res.Out) {
		t.Fatal("over-provisioned render differs from serial")
	}
	// Most bands are empty; boundaries must still be monotone and complete.
	for i := 1; i < len(res.Boundaries); i++ {
		if res.Boundaries[i] < res.Boundaries[i-1] {
			t.Fatalf("boundaries not monotone: %v", res.Boundaries)
		}
	}
}

func TestAxisFlipInvalidatesProfile(t *testing.T) {
	r := render.New(vol.MRIBrain(20), render.Options{})
	nr := NewRenderer(r, Config{Procs: 2})
	res := nr.RenderFrame(0.6, 0.2) // axis z side of 45 degrees
	if !res.Profiled {
		t.Fatal("first frame must profile")
	}
	// Crossing 45 degrees flips the principal axis: even though the
	// rotation is under 15 degrees, the renderer must re-profile.
	res = nr.RenderFrame(0.9, 0.2)
	if !res.Profiled {
		t.Fatal("axis flip did not force re-profiling")
	}
	want, _ := r.RenderSerial(0.9, 0.2)
	if !img.Equal(want, res.Out) {
		t.Fatal("image wrong after axis flip")
	}
}

func TestEmptyVolume(t *testing.T) {
	r := render.New(vol.New(12, 12, 12), render.Options{}) // all air
	nr := NewRenderer(r, Config{Procs: 4})
	res := nr.RenderFrame(0.5, 0.3)
	if res.Out.NonBlackCount() != 0 {
		t.Fatal("empty volume rendered pixels")
	}
	// Second frame uses an all-zero profile: the region collapses but the
	// renderer must not crash or mis-render.
	res = nr.RenderFrame(0.55, 0.3)
	if res.Out.NonBlackCount() != 0 {
		t.Fatal("empty volume rendered pixels on the profiled frame")
	}
}

func TestFullyOpaqueVolume(t *testing.T) {
	v := vol.New(16, 16, 16)
	for i := range v.Data {
		v.Data[i] = 255
	}
	r := render.New(v, render.Options{})
	want, _ := r.RenderSerial(0.5, 0.3)
	nr := NewRenderer(r, Config{Procs: 4})
	res := nr.RenderFrame(0.5, 0.3)
	if !img.Equal(want, res.Out) {
		t.Fatal("opaque volume differs from serial")
	}
	if want.NonBlackCount() == 0 {
		t.Fatal("opaque volume rendered black")
	}
}

func TestLargeRotationStepsStayExact(t *testing.T) {
	// 20-degree jumps exceed the re-profile threshold every frame and
	// shift the image substantially; outputs must still match serial
	// (the region expansion is a sound bound).
	r := render.New(vol.MRIBrain(20), render.Options{})
	nr := NewRenderer(r, Config{Procs: 3})
	for i := 0; i < 5; i++ {
		yaw := 0.1 + float64(i)*20*math.Pi/180
		want, _ := r.RenderSerial(yaw, 0.25)
		res := nr.RenderFrame(yaw, 0.25)
		if !img.Equal(want, res.Out) {
			t.Fatalf("frame %d differs from serial", i)
		}
	}
}

func TestPitchChangeTriggersReprofile(t *testing.T) {
	r := render.New(vol.MRIBrain(16), render.Options{})
	nr := NewRenderer(r, Config{Procs: 2})
	nr.RenderFrame(0.3, 0.0)
	res := nr.RenderFrame(0.3, 0.35) // ~20 degrees of pitch
	if !res.Profiled {
		t.Fatal("large pitch change did not trigger re-profiling")
	}
}

func TestImbalanceOfDegenerateInputs(t *testing.T) {
	if ib := Imbalance(nil, []int{0, 0}); ib != 1 {
		t.Fatalf("empty profile imbalance = %g, want 1", ib)
	}
	profile := []int64{5, 5, 5, 5}
	if ib := Imbalance(profile, []int{0, 4}); ib != 1 {
		t.Fatalf("single-proc imbalance = %g, want 1", ib)
	}
}

func TestPartitionSingleRow(t *testing.T) {
	profile := []int64{0, 42, 0}
	region := FindRegion(profile)
	bd := Partition(profile, region, 8, 1)
	if bd[0] != region.Lo || bd[8] != region.Hi {
		t.Fatalf("boundaries %v do not span region %+v", bd, region)
	}
	for i := 1; i < len(bd); i++ {
		if bd[i] < bd[i-1] {
			t.Fatalf("non-monotone boundaries: %v", bd)
		}
	}
}
