package shearwarp

// The benchmark harness: kernel benchmarks for the native renderers plus
// one benchmark per reproduced paper figure. The figure benchmarks run the
// full simulation experiment at the small scale and report the key shape
// metric (speedup or ratio) via b.ReportMetric, so `go test -bench=.`
// regenerates the paper's result set end to end.
//
// Shapes — who wins, by what factor — are the reproduction target, not the
// paper's absolute times (those came from 1990s hardware).

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"shearwarp/internal/classify"
	"shearwarp/internal/composite"
	"shearwarp/internal/experiments"
	"shearwarp/internal/newalg"
	"shearwarp/internal/perf"
	"shearwarp/internal/render"
	"shearwarp/internal/rendermode"
	"shearwarp/internal/rle"
	"shearwarp/internal/telemetry"
	"shearwarp/internal/vol"
	"shearwarp/internal/xform"
)

// ---- native kernel benchmarks ----

func BenchmarkClassify(b *testing.B) {
	v := vol.MRIBrain(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		classify.Classify(v, classify.Options{})
	}
}

func BenchmarkRLEEncode(b *testing.B) {
	c := classify.Classify(vol.MRIBrain(64), classify.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rle.Encode(c, xform.AxisZ)
	}
}

func BenchmarkFactorize(b *testing.B) {
	view := xform.ViewMatrix(256, 256, 167, 0.5, 0.3)
	for i := 0; i < b.N; i++ {
		xform.Factorize(256, 256, 167, view)
	}
}

func benchFrame(b *testing.B, alg Algorithm, procs int) {
	b.Helper()
	r := NewMRIPhantom(64, Config{Algorithm: alg, Procs: procs})
	r.Render(30, 15) // warm the encoding cache
	var yaw float64 = 30
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		yaw += 3
		r.Render(yaw, 15)
	}
}

func BenchmarkSerialFrame(b *testing.B)      { benchFrame(b, Serial, 1) }
func BenchmarkOldParallelFrame(b *testing.B) { benchFrame(b, OldParallel, 4) }
func BenchmarkRayCastFrame(b *testing.B)     { benchFrame(b, RayCast, 1) }

// BenchmarkNewParallelFrame drives the new algorithm's frame loop directly
// (below the public API, whose Image wrapper necessarily allocates). After
// a full warm-up rotation — so every principal axis has been encoded and
// every per-renderer buffer has reached its steady-state size — the loop
// must run at 0 allocs/op.
func BenchmarkNewParallelFrame(b *testing.B) {
	r := render.New(vol.MRIBrain(64), render.Options{PreprocProcs: 4})
	nr := newalg.NewRenderer(r, newalg.Config{Procs: 4})
	const step = 3 * math.Pi / 180
	pitch := 15 * math.Pi / 180
	yaw := 30 * math.Pi / 180
	for i := 0; i < 130; i++ { // full rotation: warm all axes and buffers
		yaw += step
		nr.RenderFrame(yaw, pitch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		yaw += step
		nr.RenderFrame(yaw, pitch)
	}
}

// BenchmarkNewParallelFramePerf is BenchmarkNewParallelFrame with a span
// recorder attached and each frame's breakdown derived from its spans —
// the delta against the plain benchmark is the observability layer's
// overhead (TestPerfOverheadGuard bounds the clock reads and records
// behind it; `go run ./bench` times it as perf.collect_overhead_frac).
func BenchmarkNewParallelFramePerf(b *testing.B) {
	r := render.New(vol.MRIBrain(64), render.Options{PreprocProcs: 4})
	nr := newalg.NewRenderer(r, newalg.Config{Procs: 4})
	epoch := time.Now()
	fs := telemetry.NewFrameSpans(epoch)
	nr.R.Spans = fs
	var fb perf.FrameBreakdown
	const step = 3 * math.Pi / 180
	pitch := 15 * math.Pi / 180
	yaw := 30 * math.Pi / 180
	frame := func() {
		yaw += step
		fs.Reset(epoch)
		nr.RenderFrame(yaw, pitch)
		telemetry.Breakdown(&fb, 4, fs.Spans(), fs.Dropped())
	}
	for i := 0; i < 130; i++ { // full rotation: warm all axes and buffers
		frame()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame()
	}
}

// ---- render-mode benchmarks ----
//
// One frame benchmark per non-composite render mode, at both ends of the
// algorithm spectrum: the serial reference and the new algorithm's
// steady-state frame loop. The composite numbers above are the baseline;
// the deltas here are the real cost of the MIP max-kernel (no early
// termination, so every ray runs the full slice stack) and of the
// isosurface pipeline (ordinary compositing over a binary classification,
// so usually cheaper than composite: opaque surface voxels terminate rays
// immediately).

func benchFrameMode(b *testing.B, alg Algorithm, procs int, mode Mode) {
	b.Helper()
	r := NewMRIPhantom(64, Config{Algorithm: alg, Procs: procs, Mode: mode})
	r.Render(30, 15) // warm the encoding cache
	var yaw float64 = 30
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		yaw += 3
		r.Render(yaw, 15)
	}
}

func BenchmarkSerialFrameMIP(b *testing.B) { benchFrameMode(b, Serial, 1, ModeMIP) }
func BenchmarkSerialFrameIso(b *testing.B) { benchFrameMode(b, Serial, 1, ModeIsosurface) }

// benchNewFrameMode is BenchmarkNewParallelFrame with explicit render
// options: full warm-up rotation, then the 0 allocs/op steady-state loop.
func benchNewFrameMode(b *testing.B, opt render.Options) {
	b.Helper()
	opt.PreprocProcs = 4
	r := render.New(vol.MRIBrain(64), opt)
	nr := newalg.NewRenderer(r, newalg.Config{Procs: 4})
	const step = 3 * math.Pi / 180
	pitch := 15 * math.Pi / 180
	yaw := 30 * math.Pi / 180
	for i := 0; i < 130; i++ { // full rotation: warm all axes and buffers
		yaw += step
		nr.RenderFrame(yaw, pitch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		yaw += step
		nr.RenderFrame(yaw, pitch)
	}
}

func BenchmarkNewParallelFrameMIP(b *testing.B) {
	benchNewFrameMode(b, render.Options{Mode: rendermode.MIP})
}

func BenchmarkNewParallelFrameIso(b *testing.B) {
	benchNewFrameMode(b, render.Options{Mode: rendermode.Isosurface,
		Transfer: classify.IsoTransfer(classify.DefaultIsoThreshold)})
}

// BenchmarkCompositePhaseOnly measures the compositing phase in isolation
// at the sizes that are served: one context over a fixed setup frame, all
// scanlines per iteration, reported also as ns/sample (the unit of
// `composite.ns_per_sample`) so the looping-versus-arithmetic split can be
// re-read without a profile. The per-iteration Clear is part of a real
// frame's compositing cost and stays inside the timer (StopTimer at this
// frequency would distort the numbers).
func BenchmarkCompositePhaseOnly(b *testing.B) {
	for _, n := range []int{48, 128, 256} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			r := render.New(vol.MRIBrain(n), render.Options{})
			fr := r.Setup(0.5, 0.25)
			cc := fr.NewCompositeCtx()
			var cnt composite.Counters
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fr.M.Clear()
				for row := 0; row < fr.M.H; row++ {
					cc.Scanline(row, &cnt)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cnt.Samples), "ns/sample")
		})
	}
}

// benchCompositeScanline measures the untraced compositing kernel on the
// central intermediate scanline of a volume classified with tf (nil = MRI).
func benchCompositeScanline(b *testing.B, v *vol.Volume, tf classify.TransferFunc) {
	b.Helper()
	r := render.New(v, render.Options{Transfer: tf})
	fr := r.Setup(0.5, 0.25)
	cc := fr.NewCompositeCtx()
	row := fr.M.H / 2
	var cnt composite.Counters
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr.M.ClearRow(row)
		cc.Scanline(row, &cnt)
	}
}

// BenchmarkCompositeScanlineScalar is the balanced case: the MRI phantom's
// central scanline under the exact float32 kernel, the bit-identity
// reference for the golden suites.
func BenchmarkCompositeScanlineScalar(b *testing.B) {
	benchCompositeScanline(b, vol.MRIBrain(64), nil)
}

// ---- skewed-workload kernel benchmarks ----
//
// The MRI phantom's central scanline is the balanced case; these phantoms
// stress the kernels' extreme run structures instead: scanlines with no
// work at all, scanlines where early termination kills the whole tail of
// the slice stack, and maximally fragmented 1-voxel runs where per-span
// overhead dominates per-sample cost.

// stepTransfer makes classification entirely density-driven: zero density
// is exactly transparent, anything else fully opaque. The skewed phantoms
// rely on it so their run structure is by construction, not an artifact of
// the MRI transfer ramp.
func stepTransfer(density uint8, _ float64) (alpha, r, g, bl float64) {
	if density == 0 {
		return 0, 0, 0, 0
	}
	return 1, 1, 0.9, 0.8
}

// volAllTransparent: every scanline is one transparent run — the kernel
// should do nothing but walk slice headers.
func volAllTransparent(n int) *vol.Volume { return vol.New(n, n, n) }

// volFullyOpaque: every voxel saturates immediately, so the first slice
// opacifies the whole row and every later slice exercises only the
// early-termination (opaque-pixel skip) path.
func volFullyOpaque(n int) *vol.Volume {
	v := vol.New(n, n, n)
	for i := range v.Data {
		v.Data[i] = 255
	}
	return v
}

// volOneVoxelRuns: a 3-D parity checkerboard — along any principal axis
// every run is exactly one voxel, the worst case for span bookkeeping.
func volOneVoxelRuns(n int) *vol.Volume {
	v := vol.New(n, n, n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := (z + y) % 2; x < n; x += 2 {
				v.Set(x, y, z, 255)
			}
		}
	}
	return v
}

func BenchmarkCompositeTransparentScalar(b *testing.B) {
	benchCompositeScanline(b, volAllTransparent(64), stepTransfer)
}
func BenchmarkCompositeOpaqueScalar(b *testing.B) {
	benchCompositeScanline(b, volFullyOpaque(64), stepTransfer)
}
func BenchmarkCompositeOneVoxelRunsScalar(b *testing.B) {
	benchCompositeScanline(b, volOneVoxelRuns(64), stepTransfer)
}

// ---- per-figure benchmarks ----

// benchFigure runs one paper figure at the small scale and reports a named
// metric extracted from its tables.
func benchFigure(b *testing.B, id string, metric func([]figTable) (float64, string)) {
	b.Helper()
	f, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	var val float64
	var name string
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(experiments.Small)
		tables := f.Run(lab)
		ft := make([]figTable, len(tables))
		for j := range tables {
			ft[j] = figTable{rows: tables[j].Rows, cols: tables[j].Columns}
		}
		if metric != nil {
			val, name = metric(ft)
		}
	}
	if metric != nil {
		b.ReportMetric(val, name)
	}
}

type figTable struct {
	rows [][]string
	cols []string
}

// lastCellFloat parses the float in the last row at the given column
// offset from the end.
func lastCellFloat(t figTable, fromEnd int) float64 {
	row := t.rows[len(t.rows)-1]
	cell := strings.TrimSuffix(row[len(row)-1-fromEnd], "%")
	v, _ := strconv.ParseFloat(cell, 64)
	return v
}

func BenchmarkFig02(b *testing.B) {
	benchFigure(b, "fig2", func(ts []figTable) (float64, string) {
		rc, _ := strconv.ParseFloat(ts[0].rows[0][3], 64)
		sw, _ := strconv.ParseFloat(ts[0].rows[1][3], 64)
		return rc / sw, "raycast/shearwarp"
	})
}

func speedupMetric(name string) func([]figTable) (float64, string) {
	return func(ts []figTable) (float64, string) {
		return lastCellFloat(ts[0], 0), name
	}
}

func BenchmarkFig04(b *testing.B) { benchFigure(b, "fig4", speedupMetric("old-speedup-maxP")) }
func BenchmarkFig05(b *testing.B) { benchFigure(b, "fig5", nil) }
func BenchmarkFig06(b *testing.B) { benchFigure(b, "fig6", nil) }
func BenchmarkFig07(b *testing.B) {
	benchFigure(b, "fig7", func(ts []figTable) (float64, string) {
		// True-sharing misses per 1000 refs at max procs.
		row := ts[0].rows[len(ts[0].rows)-1]
		v, _ := strconv.ParseFloat(row[2], 64)
		return v, "old-trueshare-per-1k"
	})
}
func BenchmarkFig08(b *testing.B) { benchFigure(b, "fig8", nil) }
func BenchmarkFig09(b *testing.B) { benchFigure(b, "fig9", nil) }
func BenchmarkFig10(b *testing.B) { benchFigure(b, "fig10", nil) }
func BenchmarkFig12(b *testing.B) { benchFigure(b, "fig12", speedupMetric("new-speedup-maxP")) }
func BenchmarkFig13(b *testing.B) { benchFigure(b, "fig13", speedupMetric("new-speedup-maxP")) }
func BenchmarkFig14(b *testing.B) { benchFigure(b, "fig14", nil) }
func BenchmarkFig15(b *testing.B) { benchFigure(b, "fig15", speedupMetric("new-ct-speedup-maxP")) }
func BenchmarkFig16(b *testing.B) {
	benchFigure(b, "fig16", func(ts []figTable) (float64, string) {
		row := ts[0].rows[len(ts[0].rows)-1]
		oldTS, _ := strconv.ParseFloat(row[2], 64)
		newTS, _ := strconv.ParseFloat(row[5], 64)
		if newTS == 0 {
			newTS = 0.01
		}
		return oldTS / newTS, "trueshare-reduction"
	})
}
func BenchmarkFig17(b *testing.B) { benchFigure(b, "fig17", nil) }
func BenchmarkFig18(b *testing.B) { benchFigure(b, "fig18", nil) }
func BenchmarkFig19(b *testing.B) { benchFigure(b, "fig19", speedupMetric("new-origin-speedup")) }
func BenchmarkFig20(b *testing.B) { benchFigure(b, "fig20", speedupMetric("new-svm-speedup")) }
func BenchmarkFig21(b *testing.B) { benchFigure(b, "fig21", nil) }
func BenchmarkFig22(b *testing.B) { benchFigure(b, "fig22", nil) }

// ---- ablation benchmarks ----

func BenchmarkAblChunk(b *testing.B)   { benchFigure(b, "abl-chunk", nil) }
func BenchmarkAblSteal(b *testing.B)   { benchFigure(b, "abl-steal", nil) }
func BenchmarkAblNoSteal(b *testing.B) { benchFigure(b, "abl-nosteal", nil) }
func BenchmarkAblProfile(b *testing.B) { benchFigure(b, "abl-profile", nil) }
func BenchmarkAblBarrier(b *testing.B) {
	benchFigure(b, "abl-barrier", func(ts []figTable) (float64, string) {
		// Barrier penalty at the largest processor count.
		row := ts[0].rows[len(ts[0].rows)-1]
		v, _ := strconv.ParseFloat(row[3], 64)
		return v, "barrier-penalty"
	})
}
func BenchmarkAblPlacement(b *testing.B) { benchFigure(b, "abl-placement", nil) }

func BenchmarkClassifyParallel4(b *testing.B) {
	v := vol.MRIBrain(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		classify.ClassifyParallel(v, classify.Options{}, 4)
	}
}

func BenchmarkRLEEncodeParallel4(b *testing.B) {
	c := classify.Classify(vol.MRIBrain(64), classify.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rle.EncodeParallel(c, xform.AxisZ, 4)
	}
}

func BenchmarkAttr(b *testing.B) {
	benchFigure(b, "attr", func(ts []figTable) (float64, string) {
		// int.Pix true-sharing reduction (old/new).
		for _, row := range ts[0].rows {
			if row[0] == "int.Pix" {
				oldT, _ := strconv.ParseFloat(row[1], 64)
				newT, _ := strconv.ParseFloat(row[4], 64)
				if newT == 0 {
					newT = 1
				}
				return oldT / newT, "interface-trueshare-reduction"
			}
		}
		return 0, "interface-trueshare-reduction"
	})
}
