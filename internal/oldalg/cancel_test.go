package oldalg

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"shearwarp/internal/faultinject"
	"shearwarp/internal/img"
	"shearwarp/internal/render"
	"shearwarp/internal/vol"
)

// TestRenderCtxPanicBecomesFrameError injects panics at each of the old
// algorithm's phase sites, requiring a typed error naming the phase, no
// stranded peers at the inter-phase barrier, and byte-identical output
// afterwards.
func TestRenderCtxPanicBecomesFrameError(t *testing.T) {
	const procs = 4
	r := render.New(vol.MRIBrain(32), render.Options{})
	want, _ := r.RenderSerial(0.5, 0.25)

	for _, tc := range []struct{ site, phase string }{
		{"setup", "setup"},
		{"composite", "composite"},
		{"steal", "steal"},
		{"scanline", ""}, // fires inside composite or steal
		{"barrier", "barrier"},
		{"warp", "warp"},
	} {
		t.Run(tc.site, func(t *testing.T) {
			before := runtime.NumGoroutine()
			in := faultinject.New(faultinject.Rule{
				Kind: faultinject.KindPanic, Site: tc.site, Worker: -1, Band: -1,
			})
			r.Faults = in
			res, err := RenderCtx(context.Background(), r, 0.5, 0.25, Config{Procs: procs})
			r.Faults = nil
			if in.Fired() {
				var fe *render.FrameError
				if !errors.As(err, &fe) {
					t.Fatalf("panic at %s: err = %v, want *render.FrameError", tc.site, err)
				}
				if tc.phase != "" && fe.Phase != tc.phase {
					t.Errorf("FrameError.Phase = %q, want %q", fe.Phase, tc.phase)
				}
			} else if err != nil || res == nil {
				t.Fatalf("site %s never fired but frame failed: %v", tc.site, err)
			}

			res2, err := RenderCtx(context.Background(), r, 0.5, 0.25, Config{Procs: procs})
			if err != nil {
				t.Fatalf("frame after panic failed: %v", err)
			}
			if !img.Equal(want, res2.Out) {
				t.Fatalf("frame after panic at %s differs from serial", tc.site)
			}

			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before+2 {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: before %d, now %d", before, runtime.NumGoroutine())
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestRenderCtxCancel cancels mid-composite through the injector's cancel
// hook and requires context.Canceled plus clean reuse.
func TestRenderCtxCancel(t *testing.T) {
	const procs = 4
	r := render.New(vol.MRIBrain(32), render.Options{})
	want, _ := r.RenderSerial(0.5, 0.25)

	in := faultinject.New(faultinject.Rule{
		Kind: faultinject.KindCancel, Site: "scanline", Worker: -1, Band: -1, Hit: 20,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in.SetCancel(cancel)
	r.Faults = in
	res, err := RenderCtx(ctx, r, 0.5, 0.25, Config{Procs: procs})
	r.Faults = nil
	if !in.Fired() {
		t.Fatal("cancel rule never fired")
	}
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("err = %v res = %v, want context.Canceled and nil", err, res)
	}

	res2, err := RenderCtx(context.Background(), r, 0.5, 0.25, Config{Procs: procs})
	if err != nil {
		t.Fatalf("frame after cancel failed: %v", err)
	}
	if !img.Equal(want, res2.Out) {
		t.Fatal("frame after cancel differs from serial")
	}
}

// TestRenderCtxPreCancelled must fail fast.
func TestRenderCtxPreCancelled(t *testing.T) {
	r := render.New(vol.MRIBrain(16), render.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RenderCtx(ctx, r, 0.5, 0.25, Config{Procs: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
