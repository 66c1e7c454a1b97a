package render

import (
	"context"
	"errors"
	"testing"

	"shearwarp/internal/faultinject"
	"shearwarp/internal/img"
	"shearwarp/internal/vol"
)

// TestRenderCtxPanicBecomesFrameError injects a panic at each of the
// serial schedule's fault sites and requires a *FrameError naming the
// phase and worker (-1 for setup), then a byte-identical next frame.
func TestRenderCtxPanicBecomesFrameError(t *testing.T) {
	r := New(vol.MRIBrain(32), Options{})
	want, _ := r.RenderSerial(0.5, 0.25)

	for _, tc := range []struct {
		site, phase string
		worker      int
		hit         int64
	}{
		{"setup", "setup", -1, 0},
		{"scanline", "composite", 0, 3},
		{"warp", "warp", 0, 0},
	} {
		t.Run(tc.site, func(t *testing.T) {
			in := faultinject.New(faultinject.Rule{
				Kind: faultinject.KindPanic, Site: tc.site, Worker: -1, Band: -1, Hit: tc.hit,
			})
			r.Faults = in
			out, _, err := r.RenderSerialCtx(context.Background(), 0.5, 0.25)
			r.Faults = nil
			if !in.Fired() {
				t.Fatalf("site %s never fired", tc.site)
			}
			var fe *FrameError
			if !errors.As(err, &fe) || out != nil {
				t.Fatalf("panic at %s: err = %v, out = %v; want *FrameError and no image", tc.site, err, out)
			}
			if fe.Phase != tc.phase || fe.Worker != tc.worker {
				t.Errorf("FrameError phase %q worker %d, want %q worker %d", fe.Phase, fe.Worker, tc.phase, tc.worker)
			}

			got, _, err := r.RenderSerialCtx(context.Background(), 0.5, 0.25)
			if err != nil {
				t.Fatalf("frame after panic failed: %v", err)
			}
			if !img.Equal(want, got) {
				t.Fatalf("frame after panic at %s differs", tc.site)
			}
		})
	}
}

// TestRenderCtxCancel cancels mid-composite through the injector's cancel
// hook and requires context.Canceled, then a byte-identical next frame.
func TestRenderCtxCancel(t *testing.T) {
	r := New(vol.MRIBrain(32), Options{})
	want, _ := r.RenderSerial(0.5, 0.25)

	in := faultinject.New(faultinject.Rule{
		Kind: faultinject.KindCancel, Site: "scanline", Worker: -1, Band: -1, Hit: 20,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in.SetCancel(cancel)
	r.Faults = in
	out, _, err := r.RenderSerialCtx(ctx, 0.5, 0.25)
	r.Faults = nil
	if !in.Fired() {
		t.Fatal("cancel rule never fired")
	}
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("err = %v out = %v, want context.Canceled and no image", err, out)
	}

	got, _, err := r.RenderSerialCtx(context.Background(), 0.5, 0.25)
	if err != nil {
		t.Fatalf("frame after cancel failed: %v", err)
	}
	if !img.Equal(want, got) {
		t.Fatal("frame after cancel differs")
	}
}
