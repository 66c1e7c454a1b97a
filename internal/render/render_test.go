package render

import (
	"math"
	"testing"

	"shearwarp/internal/vol"
	"shearwarp/internal/xform"
)

func TestSerialRenderProducesImage(t *testing.T) {
	r := New(vol.MRIBrain(24), Options{})
	out, st := r.RenderSerial(0.4, 0.25)
	if out.NonBlackCount() == 0 {
		t.Fatal("render produced an all-black image")
	}
	if st.Composite.Cycles == 0 || st.Warp.Cycles == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
	if st.TotalCycles() != st.Composite.Cycles+st.Warp.Cycles {
		t.Fatal("TotalCycles mismatch")
	}
}

func TestEncodingCachedPerAxis(t *testing.T) {
	r := New(vol.MRIBrain(16), Options{})
	a := r.Encoding(xform.AxisZ)
	b := r.Encoding(xform.AxisZ)
	if a != b {
		t.Fatal("axis encoding not cached")
	}
	c := r.Encoding(xform.AxisX)
	if c == nil || c == a {
		t.Fatal("axis x encoding wrong")
	}
}

func TestSetupPicksMatchingEncoding(t *testing.T) {
	r := New(vol.MRIBrain(16), Options{})
	fr := r.Setup(math.Pi/2, 0) // principal axis x
	if fr.F.Axis != xform.AxisX {
		t.Fatalf("axis = %v, want x", fr.F.Axis)
	}
	if fr.RV.Axis != xform.AxisX {
		t.Fatal("frame encoding axis does not match factorization")
	}
	if fr.M.W != fr.F.IntW || fr.Out.W != fr.F.FinalW {
		t.Fatal("image sizes do not match factorization")
	}
}

func TestRenderDeterministic(t *testing.T) {
	r := New(vol.MRIBrain(20), Options{})
	a, _ := r.RenderSerial(0.7, -0.3)
	b, _ := r.RenderSerial(0.7, -0.3)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("serial render is not deterministic")
		}
	}
}

func TestRotationViews(t *testing.T) {
	views := Rotation(4, 0.1, 0.2, 15)
	if len(views) != 4 {
		t.Fatalf("views = %d", len(views))
	}
	step := views[1][0] - views[0][0]
	want := 15 * math.Pi / 180
	if math.Abs(step-want) > 1e-12 {
		t.Fatalf("yaw step = %g, want %g", step, want)
	}
	for _, v := range views {
		if v[1] != 0.2 {
			t.Fatal("pitch must stay constant")
		}
	}
}

func TestDifferentViewsDiffer(t *testing.T) {
	r := New(vol.MRIBrain(20), Options{})
	a, _ := r.RenderSerial(0.0, 0.0)
	b, _ := r.RenderSerial(0.5, 0.0)
	if a.W == b.W && a.H == b.H {
		same := true
		for i := range a.Pix {
			if a.Pix[i] != b.Pix[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("rotating the view did not change the image")
		}
	}
}

func TestCorrectionDisabledBitIdentical(t *testing.T) {
	// The correction-off path must be exactly the pre-feature arithmetic.
	r1 := New(vol.MRIBrain(20), Options{})
	r2 := New(vol.MRIBrain(20), Options{OpacityCorrection: false})
	a, _ := r1.RenderSerial(0.5, 0.3)
	b, _ := r2.RenderSerial(0.5, 0.3)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("disabled correction changed the image")
		}
	}
}

func TestCorrectionChangesShearedImage(t *testing.T) {
	plain := New(vol.MRIBrain(20), Options{})
	corr := New(vol.MRIBrain(20), Options{OpacityCorrection: true})
	a, _ := plain.RenderSerial(0.6, 0.4)
	b, _ := corr.RenderSerial(0.6, 0.4)
	same := true
	var la, lb int64
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			same = false
		}
		la += int64(a.Pix[i])
		lb += int64(b.Pix[i])
	}
	if same {
		t.Fatal("correction had no effect on a sheared view")
	}
	if lb < la {
		t.Fatalf("corrected image dimmer (%d < %d); correction adds opacity", lb, la)
	}
}

func TestCorrectionConsistentAcrossParallelism(t *testing.T) {
	// All algorithms share the kernel, so correction-enabled images stay
	// bit-identical across serial and parallel renders. Exercised through
	// the frame constructor both paths use.
	r := New(vol.MRIBrain(20), Options{OpacityCorrection: true})
	a, _ := r.RenderSerial(0.5, 0.3)
	b, _ := r.RenderSerial(0.5, 0.3)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("corrected render not deterministic")
		}
	}
}

// TestSetupIntoSizesImagesOnce sweeps a full rotation at every pitch over
// one persistent frame: the first SetupInto reserves both images at the
// view-independent bound of the volume, so no later viewpoint may grow
// (reallocate) them. Non-cubic volumes make the three principal axes
// disagree about which bound is the largest.
func TestSetupIntoSizesImagesOnce(t *testing.T) {
	const deg = math.Pi / 180
	for _, v := range []*vol.Volume{
		vol.MRIBrainDims(48, 40, 28),
		vol.MRIBrainDims(30, 64, 41),
		vol.CTHeadDims(64, 24, 52),
		vol.CTHeadDims(33, 48, 64),
	} {
		r := New(v, Options{})
		var fr Frame
		r.SetupInto(&fr, 0, 0)
		pix, links, out := cap(fr.M.Pix), cap(fr.M.Links), cap(fr.Out.Pix)
		var maxInter, maxFinal int
		for pitch := -90.0; pitch <= 90; pitch += 7.5 {
			for yaw := 0.0; yaw < 360; yaw += 1.5 {
				r.SetupInto(&fr, yaw*deg, pitch*deg)
				if cap(fr.M.Pix) != pix || cap(fr.M.Links) != links || cap(fr.Out.Pix) != out {
					t.Fatalf("%dx%dx%d yaw %v pitch %v: images grew after the first frame (intermediate %dx%d, final %dx%d)",
						v.Nx, v.Ny, v.Nz, yaw, pitch, fr.M.W, fr.M.H, fr.Out.W, fr.Out.H)
				}
				maxInter = max(maxInter, fr.M.W*fr.M.H)
				maxFinal = max(maxFinal, fr.Out.W*fr.Out.H)
			}
		}
		// The bound is meant to be reached, not merely safe: a reservation
		// several times the largest frame would be memory every pooled
		// renderer pays for nothing.
		if links > 2*maxInter || out > 4*4*maxFinal {
			t.Errorf("%dx%dx%d: reserved %d intermediate / %d final pixels for frames of at most %d / %d",
				v.Nx, v.Ny, v.Nz, links, out/4, maxInter, maxFinal)
		}
	}
}
