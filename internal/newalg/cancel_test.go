package newalg

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

// cancelSites are the worker phase boundaries the cancellation tests
// exercise; each one has a faultinject Visit in the frame loop.
var cancelSites = []struct {
	site string
	hit  int64
}{
	{"clear", 0},
	{"composite", 2},
	{"steal", 0},
	{"scanline", 40},
	{"band-wait", 0},
	{"warp", 0},
}

// checkGoroutines polls for the goroutine count to return to near its
// baseline — a manual leak check, since aborted frames must not strand
// band waiters or frame workers.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if now := runtime.NumGoroutine(); now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: before %d, now %d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelAtPhaseBoundaries cancels a frame at each phase boundary via
// an injected cancel fault tied to a real context.CancelFunc, and
// requires: the typed context error back, no goroutine leaks, and the
// next (uninjected) frame byte-identical to a golden frame from an
// undisturbed renderer.
func TestCancelAtPhaseBoundaries(t *testing.T) {
	const procs = 4
	r := render.New(vol.MRIBrain(32), render.Options{})
	golden := NewRenderer(r, Config{Procs: procs})
	want := golden.RenderFrame(0.5, 0.25).Out
	golden.Close()

	for _, tc := range cancelSites {
		t.Run(tc.site, func(t *testing.T) {
			before := runtime.NumGoroutine()
			nr := NewRenderer(r, Config{Procs: procs})
			defer nr.Close()

			in := faultinject.New(faultinject.Rule{
				Kind: faultinject.KindCancel, Site: tc.site,
				Worker: -1, Band: -1, Hit: tc.hit,
			})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			in.SetCancel(cancel)
			nr.R.Faults = in

			res, err := nr.RenderFrameCtx(ctx, 0.5, 0.25)
			if !in.Fired() {
				// Some sites may not be reached for this view/partition
				// (e.g. no steals happen); the frame must then succeed.
				if err != nil || res == nil {
					t.Fatalf("site %s never fired but frame failed: %v", tc.site, err)
				}
			} else {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled at %s: err = %v, want context.Canceled", tc.site, err)
				}
				if res != nil {
					t.Fatalf("cancelled frame returned a result")
				}
			}

			// The renderer must be reusable: next frame, clean context,
			// byte-identical to golden.
			nr.R.Faults = nil
			res2, err := nr.RenderFrameCtx(context.Background(), 0.5, 0.25)
			if err != nil {
				t.Fatalf("frame after cancellation failed: %v", err)
			}
			if !img.Equal(want, res2.Out) {
				t.Fatalf("frame after cancellation at %s differs from golden", tc.site)
			}
			nr.Close()
			checkGoroutines(t, before)
		})
	}
}

// TestWorkerPanicBecomesFrameError injects a panic at every phase site
// and requires a typed *render.FrameError naming the phase, peers to
// unwind without deadlock, and the renderer to stay usable with
// byte-identical output.
func TestWorkerPanicBecomesFrameError(t *testing.T) {
	const procs = 4
	r := render.New(vol.MRIBrain(32), render.Options{})
	golden := NewRenderer(r, Config{Procs: procs})
	want := golden.RenderFrame(0.5, 0.25).Out
	golden.Close()

	sites := append([]struct {
		site string
		hit  int64
	}{{"setup", 0}}, cancelSites...)
	for _, tc := range sites {
		t.Run(tc.site, func(t *testing.T) {
			before := runtime.NumGoroutine()
			nr := NewRenderer(r, Config{Procs: procs})
			defer nr.Close()
			in := faultinject.New(faultinject.Rule{
				Kind: faultinject.KindPanic, Site: tc.site,
				Worker: -1, Band: -1, Hit: tc.hit,
			})
			nr.R.Faults = in

			res, err := nr.RenderFrameCtx(context.Background(), 0.5, 0.25)
			if in.Fired() {
				var fe *render.FrameError
				if !errors.As(err, &fe) {
					t.Fatalf("panic at %s: err = %v, want *render.FrameError", tc.site, err)
				}
				if fe.Phase != tc.site && tc.site != "scanline" {
					// The scanline site fires inside the composite/steal
					// phases; every other site is its own phase.
					t.Errorf("FrameError.Phase = %q, want %q", fe.Phase, tc.site)
				}
				var ip *faultinject.InjectedPanic
				if !errors.As(err, &ip) {
					t.Errorf("FrameError does not unwrap to the injected panic: %v", err)
				}
			} else if err != nil || res == nil {
				t.Fatalf("site %s never fired but frame failed: %v", tc.site, err)
			}

			nr.R.Faults = nil
			res2, err := nr.RenderFrameCtx(context.Background(), 0.5, 0.25)
			if err != nil {
				t.Fatalf("frame after panic failed: %v", err)
			}
			if !img.Equal(want, res2.Out) {
				t.Fatalf("frame after panic at %s differs from golden", tc.site)
			}
			nr.Close()
			checkGoroutines(t, before)
		})
	}
}

// TestExternalContextCancel cancels through a real context deadline while
// a delay fault holds a worker mid-frame, exercising the AfterFunc
// watcher path rather than the injected-cancel path.
func TestExternalContextCancel(t *testing.T) {
	const procs = 2
	r := render.New(vol.MRIBrain(32), render.Options{})
	nr := NewRenderer(r, Config{Procs: procs})
	defer nr.Close()

	nr.R.Faults = faultinject.New(faultinject.Rule{
		Kind: faultinject.KindDelay, Site: "scanline",
		Worker: -1, Band: -1, Hit: 3, Delay: 200 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := nr.RenderFrameCtx(ctx, 0.5, 0.25)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// The abort must not wait for the full frame: the delayed worker
	// finishes its sleep, every other worker bails within a scanline.
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled frame took %v", d)
	}

	nr.R.Faults = nil
	if _, err := nr.RenderFrameCtx(context.Background(), 0.5, 0.25); err != nil {
		t.Fatalf("frame after external cancel failed: %v", err)
	}
}

// TestPreCancelledContext must fail fast without touching the workers.
func TestPreCancelledContext(t *testing.T) {
	r := render.New(vol.MRIBrain(16), render.Options{})
	nr := NewRenderer(r, Config{Procs: 2})
	defer nr.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := nr.RenderFrameCtx(ctx, 0.5, 0.25); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
