package shearwarp

// The observability overhead guard: attaching a telemetry.FrameSpans
// recorder may add only a constant number of clock reads and records per
// worker per frame, deriving the frame's breakdown from those spans must
// not allocate, and the disabled (nil recorder) path must stay exactly as
// it was — 0 allocs/op in steady state and byte-identical output. This is
// the contract that lets the breakdown and span-trace layers stay compiled
// into the production render path.

import (
	"bytes"
	"math"
	"testing"
	"time"

	"shearwarp/internal/alloctest"
	"shearwarp/internal/classify"
	"shearwarp/internal/newalg"
	"shearwarp/internal/perf"
	"shearwarp/internal/render"
	"shearwarp/internal/rendermode"
	"shearwarp/internal/telemetry"
	"shearwarp/internal/vol"
)

// warmRenderer builds a new-algorithm renderer and drives it through a
// full rotation so every axis encoding and per-renderer buffer reaches
// steady state.
func warmRenderer() *newalg.Renderer {
	return warmOptionsRenderer(render.Options{PreprocProcs: 4})
}

// warmOptionsRenderer is the general warm-up: any render.Options, full
// rotation, steady-state buffers.
func warmOptionsRenderer(opt render.Options) *newalg.Renderer {
	r := render.New(vol.MRIBrain(48), opt)
	nr := newalg.NewRenderer(r, newalg.Config{Procs: 4})
	const step = 3 * math.Pi / 180
	pitch := 15 * math.Pi / 180
	yaw := 30 * math.Pi / 180
	for i := 0; i < 130; i++ {
		yaw += step
		nr.RenderFrame(yaw, pitch)
	}
	return nr
}

// requireZeroAllocs is the frame-loop allocation guard: frame, called
// repeatedly on a warm renderer, must not allocate. Under the race
// detector sync.Pool sheds a quarter of what is Put, so the frames run —
// the detector watches the frame loop through them — but their count is
// not asserted.
func requireZeroAllocs(t *testing.T, what string, frame func()) {
	t.Helper()
	allocs := alloctest.PerRun(20, frame)
	if allocs != 0 && !alloctest.Race {
		t.Fatalf("%s: RenderFrame allocates %.1f allocs/op, want 0", what, allocs)
	}
}

func TestPerfDisabledZeroAllocs(t *testing.T) {
	nr := warmRenderer()
	yaw := 77 * math.Pi / 180
	pitch := 15 * math.Pi / 180
	requireZeroAllocs(t, "disabled recorder", func() {
		yaw += 3 * math.Pi / 180
		nr.RenderFrame(yaw, pitch)
	})
}

// TestPerfEnabledSteadyStateZeroAllocs: LastBreakdown is derived into
// storage the renderer reuses, so a CollectStats renderer allocates per
// frame exactly what a plain one does (the returned *Image).
func TestPerfEnabledSteadyStateZeroAllocs(t *testing.T) {
	perFrame := func(cfg Config) float64 {
		r := NewMRIPhantom(48, cfg)
		defer r.Close()
		yaw := 30.0
		for i := 0; i < 130; i++ {
			yaw += 3
			r.Render(yaw, 15)
		}
		return alloctest.PerRun(20, func() {
			yaw += 3
			r.Render(yaw, 15)
		})
	}
	plain := perFrame(Config{Algorithm: NewParallel, Procs: 4})
	stats := perFrame(Config{Algorithm: NewParallel, Procs: 4, CollectStats: true})
	if stats != plain && !alloctest.Race {
		t.Fatalf("CollectStats frame allocates %.1f allocs/op, plain frame %.1f: the breakdown allocates", stats, plain)
	}
}

func TestPerfDisabledByteIdentical(t *testing.T) {
	plain := warmRenderer()
	inst := warmRenderer()
	epoch := time.Now()
	fs := telemetry.NewFrameSpans(epoch)
	inst.Spans = fs
	pitch := 15 * math.Pi / 180
	for _, yawDeg := range []float64{30, 77, 141, 260} {
		fs.Reset(epoch)
		yaw := yawDeg * math.Pi / 180
		a := plain.RenderFrame(yaw, pitch).Out
		b := inst.RenderFrame(yaw, pitch).Out
		if a.W != b.W || a.H != b.H {
			t.Fatalf("yaw %v: sizes differ (%dx%d vs %dx%d)", yawDeg, a.W, a.H, b.W, b.H)
		}
		if !bytes.Equal(a.Pix, b.Pix) {
			t.Fatalf("yaw %v: instrumented frame differs from plain frame", yawDeg)
		}
		var fb perf.FrameBreakdown
		if !telemetry.Breakdown(&fb, 4, fs.Spans(), fs.Dropped()) || fb.WallNS <= 0 {
			t.Fatalf("yaw %v: recorder yields no breakdown", yawDeg)
		}
	}
}

// TestSpansDetachedZeroAllocs checks that a renderer that once carried a
// span recorder returns to the pristine disabled path after detaching:
// 0 allocs/op, like a renderer that was never traced.
func TestSpansDetachedZeroAllocs(t *testing.T) {
	nr := warmRenderer()
	fs := telemetry.NewFrameSpans(time.Now())
	nr.Spans = fs
	yaw := 50 * math.Pi / 180
	pitch := 15 * math.Pi / 180
	nr.RenderFrame(yaw, pitch)
	if len(fs.Spans()) == 0 {
		t.Fatal("attached recorder captured no spans")
	}
	nr.Spans = nil
	requireZeroAllocs(t, "detached recorder", func() {
		yaw += 3 * math.Pi / 180
		nr.RenderFrame(yaw, pitch)
	})
}

// TestSpansAttachedSteadyStateZeroAllocs: recording spans is index-claim
// plus in-place writes into the preallocated buffer — no allocation.
func TestSpansAttachedSteadyStateZeroAllocs(t *testing.T) {
	nr := warmRenderer()
	fs := telemetry.NewFrameSpans(time.Now())
	epoch := time.Now()
	nr.Spans = fs
	yaw := 50 * math.Pi / 180
	pitch := 15 * math.Pi / 180
	requireZeroAllocs(t, "attached recorder", func() {
		fs.Reset(epoch)
		yaw += 3 * math.Pi / 180
		nr.RenderFrame(yaw, pitch)
	})
}

// TestSpansByteIdentical: tracing a frame must not change its pixels —
// attached, detached-after-attach, and never-attached renderers all
// produce byte-identical output, and the traced frames carry the
// expected per-worker span names.
func TestSpansByteIdentical(t *testing.T) {
	plain := warmRenderer()
	traced := warmRenderer()
	fs := telemetry.NewFrameSpans(time.Now())
	epoch := time.Now()
	traced.Spans = fs
	pitch := 15 * math.Pi / 180
	for _, yawDeg := range []float64{30, 77, 141, 260} {
		fs.Reset(epoch)
		yaw := yawDeg * math.Pi / 180
		a := plain.RenderFrame(yaw, pitch).Out
		b := traced.RenderFrame(yaw, pitch).Out
		if a.W != b.W || a.H != b.H || !bytes.Equal(a.Pix, b.Pix) {
			t.Fatalf("yaw %v: traced frame differs from plain frame", yawDeg)
		}
		names := map[string]bool{}
		for _, sp := range fs.Spans() {
			names[sp.Name] = true
		}
		for _, want := range []string{"setup", "clear", "composite-own", "warp"} {
			if !names[want] {
				t.Fatalf("yaw %v: no %q span recorded; have %v", yawDeg, want, names)
			}
		}
	}
	// Detached again, the output still matches.
	traced.Spans = nil
	yaw := 200 * math.Pi / 180
	a := plain.RenderFrame(yaw, pitch).Out
	b := traced.RenderFrame(yaw, pitch).Out
	if !bytes.Equal(a.Pix, b.Pix) {
		t.Fatal("detached renderer diverged from plain renderer")
	}
}

// TestModeZeroAllocs extends the steady-state allocation contract across
// the render-mode axis: the MIP max-kernel and the isosurface pipeline
// (ordinary compositing over a binary classification) reuse the same
// pooled scratch as the composite path, so no mode may reintroduce
// per-frame garbage.
func TestModeZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  render.Options
	}{
		{"mip", render.Options{PreprocProcs: 4, Mode: rendermode.MIP}},
		{"iso", render.Options{PreprocProcs: 4, Mode: rendermode.Isosurface,
			Transfer: classify.IsoTransfer(classify.DefaultIsoThreshold)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nr := warmOptionsRenderer(tc.opt)
			yaw := 77 * math.Pi / 180
			pitch := 15 * math.Pi / 180
			requireZeroAllocs(t, tc.name+" mode", func() {
				yaw += 3 * math.Pi / 180
				nr.RenderFrame(yaw, pitch)
			})
		})
	}
}

// TestExemplarPathZeroAllocs extends the zero-allocation contract to
// the request-latency exemplar path: ObserveExemplarNS must not
// allocate with the store disabled (where it degrades to ObserveNS
// behind a nil check) nor enabled (where capture is a fixed-array
// seqlock write).
func TestExemplarPathZeroAllocs(t *testing.T) {
	plain := telemetry.NewHistogram()
	enabled := telemetry.NewHistogram()
	enabled.EnableExemplars()
	var v int64 = 1
	allocs := testing.AllocsPerRun(1000, func() {
		v += 977
		plain.ObserveExemplarNS(v, uint64(v))
	})
	if allocs != 0 {
		t.Fatalf("disabled exemplar store: ObserveExemplarNS allocates %.1f allocs/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		v += 977
		enabled.ObserveExemplarNS(v, uint64(v))
	})
	if allocs != 0 {
		t.Fatalf("enabled exemplar store: ObserveExemplarNS allocates %.1f allocs/op, want 0", allocs)
	}
	if len(enabled.Exemplars()) == 0 {
		t.Fatal("enabled store retained no exemplars")
	}
}

// TestExemplarObserveOverheadGuard pins what the exemplar-enabled observe
// path does, structurally, where it once bounded its time: an observation
// that is the slowest in its octave is captured with its request ID by the
// observe call itself, and (TestExemplarPathZeroAllocs) that call
// allocates nothing. What it costs in time belongs to `go run ./bench`
// (telemetry.span_overhead_frac on the service workloads).
func TestExemplarObserveOverheadGuard(t *testing.T) {
	h := telemetry.NewHistogram()
	h.EnableExemplars()
	for v := int64(time.Millisecond); v < int64(time.Millisecond)+100*977; v += 977 {
		h.ObserveExemplarNS(v, uint64(v)) // each is the slowest so far
		if ex := h.Exemplars()[0]; ex.ValueNS != v || ex.ReqID != uint64(v) {
			t.Fatalf("observation %d not captured: slowest exemplar %+v", v, ex)
		}
	}
}

// TestPerfOverheadGuard bounds what the span recorder does to a frame by
// counting it, not timing it (a ratio of two wall times on a loaded
// machine flakes, and a faster frame makes the same fixed cost a larger
// fraction). Every timed site in a worker reads the clock once and records
// one span, so a worker's record count is the number of timed sites it
// passed. That number may depend only on the frame's structure, never on
// its scanlines or chunks, so the same constant has to hold at 24³ and at
// 96³: serial records composite and warp; the old algorithm one own and
// one stolen compositing span, the barrier and the warp; the new algorithm
// the clear, its rendezvous, own and stolen compositing, and a wait plus a
// warp for each of the at most three warp tasks a worker owns (its band's
// interior and a sliver either side). The disabled path's half of the
// contract — 0 allocs/op, byte-identical frames — is
// TestPerfDisabledZeroAllocs, TestPerfDisabledByteIdentical and
// TestSpansByteIdentical; what the clock reads cost in wall time is
// `go run ./bench`'s perf.collect_overhead_frac.
func TestPerfOverheadGuard(t *testing.T) {
	for _, tc := range []struct {
		alg              Algorithm
		procs, perWorker int
	}{{Serial, 1, 2}, {OldParallel, 4, 4}, {NewParallel, 4, 4 + 2*3}} {
		for _, size := range []int{24, 96} {
			r := NewMRIPhantom(size, Config{Algorithm: tc.alg, Procs: tc.procs})
			epoch := time.Now()
			fs := telemetry.NewFrameSpans(epoch)
			r.SetSpanRecorder(fs)
			for yawDeg := 0.0; yawDeg < 360; yawDeg += 24 {
				fs.Reset(epoch)
				r.Render(yawDeg, 15)
				if fs.Dropped() != 0 {
					t.Fatalf("%v size %d yaw %v: recorder dropped %d spans", tc.alg, size, yawDeg, fs.Dropped())
				}
				records := make([]int, tc.procs)
				for _, sp := range fs.Spans() {
					if sp.Worker >= 0 {
						records[sp.Worker]++
					}
				}
				var scanlines int64
				for _, w := range r.LastBreakdown().Frame().PerWorker {
					scanlines += w.Scanlines
				}
				if scanlines == 0 {
					t.Fatalf("%v size %d yaw %v: breakdown counted no scanlines", tc.alg, size, yawDeg)
				}
				for w, n := range records {
					if n == 0 || n > tc.perWorker {
						t.Fatalf("%v size %d yaw %v: worker %d recorded %d timed sites over the frame's %d scanlines, want 1..%d",
							tc.alg, size, yawDeg, w, n, scanlines, tc.perWorker)
					}
				}
			}
			r.Close()
		}
	}
}
