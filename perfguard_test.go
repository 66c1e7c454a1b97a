package shearwarp

// The observability overhead guard: attaching a perf.Collector or a
// telemetry.FrameSpans recorder may add only a constant number of clock
// reads and records per worker per frame, and the disabled (nil collector,
// nil recorder) path must stay exactly as it was — 0 allocs/op in steady
// state and byte-identical output. This is the contract that lets the
// breakdown and span-trace layers stay compiled into the production render
// path.

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
func warmRenderer(pc *perf.Collector) *newalg.Renderer {
	return warmOptionsRenderer(pc, render.Options{PreprocProcs: 4})
}

// warmOptionsRenderer is the general warm-up: any render.Options, full
// rotation, steady-state buffers.
func warmOptionsRenderer(pc *perf.Collector, opt render.Options) *newalg.Renderer {
	r := render.New(vol.MRIBrain(48), opt)
	nr := newalg.NewRenderer(r, newalg.Config{Procs: 4})
	nr.Perf = pc
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
	nr := warmRenderer(nil)
	yaw := 77 * math.Pi / 180
	pitch := 15 * math.Pi / 180
	requireZeroAllocs(t, "disabled collector", func() {
		yaw += 3 * math.Pi / 180
		nr.RenderFrame(yaw, pitch)
	})
}

func TestPerfEnabledSteadyStateZeroAllocs(t *testing.T) {
	// The collector itself is allocation-free per frame once its slots
	// exist: Reset reuses them and AddPhase/AddCount write in place.
	nr := warmRenderer(perf.NewCollector(4))
	yaw := 77 * math.Pi / 180
	pitch := 15 * math.Pi / 180
	requireZeroAllocs(t, "enabled collector", func() {
		yaw += 3 * math.Pi / 180
		nr.RenderFrame(yaw, pitch)
	})
}

func TestPerfDisabledByteIdentical(t *testing.T) {
	plain := warmRenderer(nil)
	inst := warmRenderer(perf.NewCollector(4))
	pitch := 15 * math.Pi / 180
	for _, yawDeg := range []float64{30, 77, 141, 260} {
		yaw := yawDeg * math.Pi / 180
		a := plain.RenderFrame(yaw, pitch).Out
		b := inst.RenderFrame(yaw, pitch).Out
		if a.W != b.W || a.H != b.H {
			t.Fatalf("yaw %v: sizes differ (%dx%d vs %dx%d)", yawDeg, a.W, a.H, b.W, b.H)
		}
		if !bytes.Equal(a.Pix, b.Pix) {
			t.Fatalf("yaw %v: instrumented frame differs from plain frame", yawDeg)
		}
		fb := inst.Perf.Breakdown("new")
		if fb.WallNS <= 0 {
			t.Fatalf("yaw %v: collector recorded no wall time", yawDeg)
		}
	}
}

// TestSpansDetachedZeroAllocs checks that a renderer that once carried a
// span recorder returns to the pristine disabled path after detaching:
// 0 allocs/op, like a renderer that was never traced.
func TestSpansDetachedZeroAllocs(t *testing.T) {
	nr := warmRenderer(nil)
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
	nr := warmRenderer(nil)
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
	plain := warmRenderer(nil)
	traced := warmRenderer(nil)
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
			nr := warmOptionsRenderer(nil, tc.opt)
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
	plain := telemetry.NewHistogram("guard_plain_seconds", "")
	enabled := telemetry.NewHistogram("guard_exemplar_seconds", "")
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

// TestExemplarObserveOverheadGuard bounds the per-request cost of
// exemplar-enabled latency observation. The service observes once per
// HTTP request against frames that render in milliseconds, so the 5%
// instrumentation budget translates to "an observation must stay in the
// nanosecond noise floor"; 2µs is three orders of magnitude inside the
// budget while still catching a regression that adds locking or
// allocation to the capture path.
func TestExemplarObserveOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard")
	}
	bench := func(h *telemetry.Histogram) float64 {
		var v int64 = 1
		best := math.MaxFloat64
		for run := 0; run < 3; run++ {
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					v += 977
					h.ObserveExemplarNS(v, uint64(v))
				}
			})
			if ns := float64(res.NsPerOp()); ns < best {
				best = ns
			}
		}
		return best
	}
	plain := telemetry.NewHistogram("guard_overhead_plain_seconds", "")
	enabled := telemetry.NewHistogram("guard_overhead_exemplar_seconds", "")
	enabled.EnableExemplars()
	base := bench(plain)
	withCapture := bench(enabled)
	t.Logf("observe: disabled store %.1f ns/op, enabled store %.1f ns/op", base, withCapture)
	const limitNS = 2000
	if withCapture > limitNS {
		t.Fatalf("exemplar-enabled observation costs %.0f ns/op, budget %d ns", withCapture, limitNS)
	}
}

// TestPerfOverheadGuard bounds what the recorders do to a frame by
// counting it, not timing it (a ratio of two wall times on a loaded
// machine flakes, and a faster frame makes the same fixed cost a larger
// fraction). Every timed site in a worker reads the clock at most twice
// and feeds both recorders — one AddPhase, one span record — so the span
// recorder's per-worker record count is the number of timed sites the
// worker passed. That number may depend only on the frame's structure: the
// clear, its rendezvous, own and stolen compositing, and a wait plus a warp
// for each of the at most three warp tasks a worker owns (its band's
// interior and a sliver either side). It must not grow with scanlines or
// chunks, so the same constant has to hold at 24³ and at 96³. The disabled
// path's half of the contract — 0 allocs/op, byte-identical frames — is
// TestPerfDisabledZeroAllocs, TestPerfDisabledByteIdentical and
// TestSpansByteIdentical; what the clock reads cost in wall time is
// `go run ./bench`'s perf.collect_overhead_frac.
func TestPerfOverheadGuard(t *testing.T) {
	const procs = 4
	const perWorker = 4 + 2*3
	for _, size := range []int{24, 96} {
		nr := newalg.NewRenderer(render.New(vol.MRIBrain(size), render.Options{PreprocProcs: 4}),
			newalg.Config{Procs: procs})
		nr.Perf = perf.NewCollector(procs)
		epoch := time.Now()
		fs := telemetry.NewFrameSpans(epoch)
		nr.Spans = fs
		pitch := 15 * math.Pi / 180
		for yawDeg := 0.0; yawDeg < 360; yawDeg += 24 {
			fs.Reset(epoch)
			nr.RenderFrame(yawDeg*math.Pi/180, pitch)
			if fs.Dropped() != 0 {
				t.Fatalf("size %d yaw %v: recorder dropped %d spans", size, yawDeg, fs.Dropped())
			}
			var records [procs]int
			for _, sp := range fs.Spans() {
				if sp.Worker >= 0 {
					records[sp.Worker]++
				}
			}
			var scanlines int64
			for w := range records {
				scanlines += nr.Perf.CountVal(w, perf.CounterScanlines)
			}
			if scanlines == 0 {
				t.Fatalf("size %d yaw %v: collector counted no scanlines", size, yawDeg)
			}
			for w, n := range records {
				if n == 0 || n > perWorker {
					t.Fatalf("size %d yaw %v: worker %d recorded %d timed sites over the frame's %d scanlines, want 1..%d",
						size, yawDeg, w, n, scanlines, perWorker)
				}
			}
		}
	}
}
