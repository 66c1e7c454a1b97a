package oldalg

import (
	"testing"

	"shearwarp/internal/classify"
	"shearwarp/internal/img"
	"shearwarp/internal/render"
	"shearwarp/internal/vol"
)

func TestMoreProcsThanScanlines(t *testing.T) {
	r := render.New(vol.MRIBrain(10), render.Options{})
	want, _ := r.RenderSerial(0.4, 0.2)
	res := Render(r, 0.4, 0.2, Config{Procs: 64})
	if !img.Equal(want, res.Out) {
		t.Fatal("over-provisioned render differs from serial")
	}
}

func TestEmptyVolume(t *testing.T) {
	r := render.New(vol.New(12, 12, 12), render.Options{})
	res := Render(r, 0.5, 0.3, Config{Procs: 4})
	if res.Out.NonBlackCount() != 0 {
		t.Fatal("empty volume rendered pixels")
	}
}

func TestFullyOpaqueVolume(t *testing.T) {
	v := vol.New(16, 16, 16)
	for i := range v.Data {
		v.Data[i] = 255
	}
	r := render.New(v, render.Options{})
	want, _ := r.RenderSerial(0.5, 0.3)
	res := Render(r, 0.5, 0.3, Config{Procs: 4})
	if !img.Equal(want, res.Out) {
		t.Fatal("opaque volume differs from serial")
	}
}

// TestTinyTiles: the final image of this frame is 33 rows tall, so the warp's
// bottom row of tiles is one pixel tall.
func TestTinyTiles(t *testing.T) {
	r := render.New(vol.MRIBrain(23), render.Options{})
	if h := r.Setup(0.5, 0.3).Out.H; h%TileSize != 1 {
		t.Fatalf("final image has %d rows; the test needs a 1-pixel row of tiles", h)
	}
	want, _ := r.RenderSerial(0.5, 0.3)
	res := Render(r, 0.5, 0.3, Config{Procs: 4})
	if !img.Equal(want, res.Out) {
		t.Fatal("1-pixel tiles corrupt the image")
	}
}

func TestCTWithCorrection(t *testing.T) {
	r := render.New(vol.CTHead(18), render.Options{
		Transfer: classify.CTTransfer, OpacityCorrection: true,
	})
	want, _ := r.RenderSerial(0.7, -0.4)
	res := Render(r, 0.7, -0.4, Config{Procs: 5})
	if !img.Equal(want, res.Out) {
		t.Fatal("corrected CT parallel render differs from serial")
	}
}

func TestAxisAlignedView(t *testing.T) {
	// Zero shear: the intermediate image equals the volume cross-section.
	r := render.New(vol.MRIBrain(16), render.Options{})
	want, _ := r.RenderSerial(0, 0)
	res := Render(r, 0, 0, Config{Procs: 3})
	if !img.Equal(want, res.Out) {
		t.Fatal("axis-aligned parallel render differs")
	}
}
