package main

import (
	"context"
	"math"
	"time"

	"shearwarp"
	"shearwarp/internal/classify"
	"shearwarp/internal/composite"
	"shearwarp/internal/img"
	"shearwarp/internal/newalg"
	"shearwarp/internal/perf"
	"shearwarp/internal/render"
	"shearwarp/internal/rendermode"
	"shearwarp/internal/rle"
	"shearwarp/internal/volcache"
	"shearwarp/internal/warp"
	"shearwarp/internal/xform"
)

// The library ladder: every layer under Renderer.RenderCtx measured from
// outside, by timing calls to its exported functions on the workload's own
// scenes and viewpoints. Each viewpoint is rendered as the explicit
// sequence SetupInto → Clear → Scanline×H → WarpTile and, separately, as
// whole RenderSerial / RenderFrame calls; the stitched image must equal
// RenderSerial's bytes, or the layer numbers measure a different program.

// viewSample is one viewpoint's time at every rung.
type viewSample struct {
	mode                          shearwarp.Mode
	factorizeUS, setupUS, clearUS float64
	compMS, warpMS, serialMS      float64
	p1MS, pwMS, oldMS             float64
	collectOnMS, collectOffMS     float64
	samples, skips, pixels        int64
	busy, wait, imbalance         float64 // new algorithm, fractions of W × wall
	minShare                      float64 // least-loaded worker's share of the composited scanlines
	steals, oldSteals, oldWait    float64
	profiled                      bool
}

type ladder struct {
	rec   *recorder
	res   *result
	procs int        // W of the workload: renderer workers at every parallel rung
	speed speedMeter // every time the ladder reports is scaled by it, like the end-to-end times

	views                       []viewSample
	classifyMS, encodeMS        []float64
	newRendererMS, firstFrameMS []float64
	hitNS, partitionUS          []float64
	acquireReleaseNS            float64
	rleBytes                    int64
	cache                       volcache.Stats // summed over the scenes' caches
	steadyBuilds                int64
}

// scaled returns xs times k.
func scaled(xs []float64, k float64) []float64 {
	for i := range xs {
		xs[i] *= k
	}
	return xs
}

// scale brings the sample's times to nominal machine speed.
func (v *viewSample) scale(k float64) {
	for _, t := range []*float64{
		&v.factorizeUS, &v.setupUS, &v.clearUS, &v.compMS, &v.warpMS, &v.serialMS,
		&v.p1MS, &v.pwMS, &v.oldMS, &v.collectOnMS, &v.collectOffMS,
	} {
		*t *= k
	}
}

// repeat runs f at least lo times, then on until d has passed or it has
// run hi times, and returns each run's duration in ms.
func repeat(lo, hi int, d time.Duration, f func()) []float64 {
	var out []float64
	for end := time.Now().Add(d); len(out) < lo || (len(out) < hi && time.Now().Before(end)); {
		t0 := time.Now()
		f()
		out = append(out, ms(time.Since(t0)))
	}
	return out
}

func classifyOptions(s *scene) classify.Options {
	switch {
	case s.mode == shearwarp.ModeIsosurface:
		return classify.Options{Transfer: classify.IsoTransfer(classify.DefaultIsoThreshold)}
	case s.ct:
		return classify.Options{Transfer: classify.CTTransfer}
	}
	return classify.Options{}
}

// check counts one verified frame.
func (l *ladder) check(ok bool) {
	l.res.Attempted++
	if !ok {
		l.res.Failed++
	}
}

func waitFrac(fb *perf.FrameBreakdown) float64 {
	var wait int64
	for i := range fb.PerWorker {
		wait += fb.PerWorker[i].WaitNS
	}
	return ratio(float64(wait), float64(fb.WallNS)*float64(len(fb.PerWorker)))
}

func minScanlineShare(fb *perf.FrameBreakdown) float64 {
	least, total := int64(math.MaxInt64), int64(0)
	for i := range fb.PerWorker {
		n := fb.PerWorker[i].Scanlines
		least, total = min(least, n), total+n
	}
	return ratio(float64(least), float64(total))
}

// scene climbs the ladder on one scene for about budget.
func (l *ladder) scene(s *scene, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	ctx := context.Background()
	v, procs, rec := s.vol, l.procs, l.rec
	setupTrace := rec.newTrace()

	// Preprocessing layers, on the raw volume.
	copt := classifyOptions(s)
	var c *classify.Classified
	l.classifyMS = append(l.classifyMS, scaled(repeat(1, 5, budget/20, func() {
		rec.call(setupTrace, 0, "classify", "build", func() int64 {
			c = classify.ClassifyParallel(v, copt, procs)
			return int64(len(c.Voxels))
		})
	}), l.speed.now())...)
	var enc [3]*rle.Volume
	l.encodeMS = append(l.encodeMS, scaled(repeat(1, 5, budget/20, func() {
		rec.call(setupTrace, 0, "rle", "encode-3-axes", func() int64 {
			var n int64
			for a := range enc {
				enc[a] = rle.EncodeParallel(c, xform.Axis(a), procs)
				n += enc[a].MemoryBytes()
			}
			return n
		})
	}), l.speed.now())...)
	for _, e := range enc {
		l.rleBytes += e.MemoryBytes()
	}

	// The kernels and the two algorithms run over that preprocessing.
	r := render.NewShared(v, c, func(a xform.Axis) *rle.Volume { return enc[a] },
		render.Options{Mode: rendermode.Mode(s.mode), PreprocProcs: procs})
	n1 := newalg.NewRenderer(r, newalg.Config{Procs: 1})
	nW := newalg.NewRenderer(r, newalg.Config{Procs: procs})
	defer n1.Close()
	defer nW.Close()

	// The public API runs over a cache of its own, as a pool does.
	cache := volcache.New(0)
	pv, err := shearwarp.PrepareVolumeMode(v.Data, v.Nx, v.Ny, v.Nz, s.transfer(), s.mode, 0, procs, cache)
	if err != nil {
		return err
	}
	var public []*shearwarp.Renderer
	for _, cfg := range []shearwarp.Config{
		{Algorithm: shearwarp.NewParallel, Procs: procs},
		{Algorithm: shearwarp.NewParallel, Procs: procs, CollectStats: true},
		{Algorithm: shearwarp.OldParallel, Procs: procs, CollectStats: true},
	} {
		re, err := pv.NewRenderer(cfg)
		if err != nil {
			return err
		}
		defer re.Close()
		public = append(public, re)
	}
	collectOff, collectOn, old := public[0], public[1], public[2]
	// Warm, so every encoding the loop below needs is in the cache.
	for _, vi := range s.warmViews() {
		for _, re := range public {
			if _, _, err := re.RenderCtx(ctx, s.views[vi][0], s.views[vi][1]); err != nil {
				return err
			}
		}
		n1.RenderFrame(s.views[vi][0]*math.Pi/180, s.views[vi][1]*math.Pi/180)
		nW.RenderFrame(s.views[vi][0]*math.Pi/180, s.views[vi][1]*math.Pi/180)
	}
	warm := cache.Snapshot()

	// pool: renderer construction and first frame on a warm cache.
	repeat(3, 9, budget/40, func() {
		var re *shearwarp.Renderer
		k := l.speed.now()
		l.newRendererMS = append(l.newRendererMS, k*ms(rec.call(setupTrace, 0, "pool", "new-renderer", func() int64 {
			re, err = pv.NewRenderer(shearwarp.Config{Algorithm: shearwarp.NewParallel, Procs: procs})
			return 0
		})))
		if err != nil {
			return
		}
		l.firstFrameMS = append(l.firstFrameMS, k*ms(rec.call(setupTrace, 0, "pool", "first-frame", func() int64 {
			_, _, err = re.RenderCtx(ctx, s.views[0][0], s.views[0][1])
			return 0
		})))
		re.Close()
	})
	if err != nil {
		return err
	}
	// volcache: a lookup of a key that is present, on a cache of the
	// probe's own so the scene's hit counts stay the renderers'.
	{
		probe, key := volcache.New(0), volcache.Key{Volume: pv.Key(), Transfer: "mri", Axis: volcache.AxisNone}
		probe.Put(key, c, 1)
		const n = 20000
		t0 := time.Now()
		for i := 0; i < n; i++ {
			probe.GetOrBuild(key, nil)
		}
		l.hitNS = append(l.hitNS, float64(time.Since(t0))/n)
	}
	if l.acquireReleaseNS == 0 {
		pool, err := shearwarp.NewRendererPool(1, func() (*shearwarp.Renderer, error) {
			return pv.NewRenderer(shearwarp.Config{Algorithm: shearwarp.Serial})
		})
		if err != nil {
			return err
		}
		const n = 20000
		t0 := time.Now()
		for i := 0; i < n; i++ {
			re, _ := pool.Acquire(ctx)
			pool.Release(re)
		}
		l.acquireReleaseNS = float64(time.Since(t0)) / n
		pool.Close()
	}

	// The per-viewpoint rungs: at least three viewpoints, then on until the
	// budget is spent or every viewpoint has been visited twice.
	var fr render.Frame
	var cc *composite.Ctx
	var scratch warp.Scratch
	var pb ppmBuf
	for i := 0; i < 3 || (i < 2*len(s.views) && time.Now().Before(deadline)); i++ {
		vi := i % len(s.views)
		yawDeg, pitchDeg := s.views[vi][0], s.views[vi][1]
		yaw, pitch := yawDeg*math.Pi/180, pitchDeg*math.Pi/180
		tr := rec.newTrace()
		vs := viewSample{mode: s.mode}

		vs.factorizeUS = 1e3 * ms(rec.call(tr, 0, "xform", "factorize", func() int64 {
			xform.Factorize(v.Nx, v.Ny, v.Nz, xform.ViewMatrix(v.Nx, v.Ny, v.Nz, yaw, pitch))
			return 0
		}))

		// The frame as the explicit sequence of its layers.
		root := rec.begin(tr, 0, "render", "decomposed")
		vs.setupUS = 1e3 * ms(rec.call(tr, root, "render", "setup-into", func() int64 {
			r.SetupInto(&fr, yaw, pitch)
			return 0
		}))
		vs.clearUS = 1e3 * ms(rec.call(tr, root, "img", "clear", func() int64 {
			fr.M.Clear()
			return int64(fr.M.W * fr.M.H)
		}))
		var cnt composite.Counters
		vs.compMS = ms(rec.call(tr, root, "composite", "scanlines", func() int64 {
			cc = fr.BindCompositeCtx(cc)
			for row := 0; row < fr.M.H; row++ {
				cc.Scanline(row, &cnt)
			}
			return cnt.Samples
		}))
		var wcnt warp.Counters
		vs.warpMS = ms(rec.call(tr, root, "warp", "tile", func() int64 {
			wc := fr.NewWarpCtx(&scratch)
			wc.WarpTile(0, 0, fr.Out.W, fr.Out.H, &wcnt)
			return wcnt.Pixels + wcnt.Background
		}))
		rec.end(root, 0)
		vs.samples, vs.skips, vs.pixels = cnt.Samples, cnt.Skips, wcnt.Pixels+wcnt.Background
		stitched := pb.final(fr.Out)

		// The same frame as whole calls.
		var out *img.Final
		vs.serialMS = ms(rec.call(tr, 0, "render", "serial", func() int64 {
			out, _ = r.RenderSerial(yaw, pitch)
			return 0
		}))
		l.check(stitched == s.oracle[vi] && pb.final(out) == stitched) // the decomposition check
		vs.p1MS = ms(rec.call(tr, 0, "newalg", "frame.p1", func() int64 {
			out = n1.RenderFrame(yaw, pitch).Out
			return 0
		}))
		l.check(pb.final(out) == s.oracle[vi])
		vs.pwMS = ms(rec.call(tr, 0, "newalg", "frame.pW", func() int64 {
			out = nW.RenderFrame(yaw, pitch).Out
			return 0
		}))
		l.check(pb.final(out) == s.oracle[vi])

		// The public API with and without the perf collector, alternating
		// which goes first so neither always runs on the warmer cache.
		viaAPI := func(re *shearwarp.Renderer, layer, name string) (float64, shearwarp.FrameInfo) {
			var im *shearwarp.Image
			var info shearwarp.FrameInfo
			var err error
			d := rec.call(tr, 0, layer, name, func() int64 {
				im, info, err = re.RenderCtx(ctx, yawDeg, pitchDeg)
				return 0
			})
			l.check(err == nil && pb.frame(im) == s.oracle[vi])
			return ms(d), info
		}
		var info shearwarp.FrameInfo
		if i%2 == 0 {
			vs.collectOffMS, _ = viaAPI(collectOff, "perf", "frame.collect-off")
			vs.collectOnMS, info = viaAPI(collectOn, "perf", "frame.collect-on")
		} else {
			vs.collectOnMS, info = viaAPI(collectOn, "perf", "frame.collect-on")
			vs.collectOffMS, _ = viaAPI(collectOff, "perf", "frame.collect-off")
		}
		if bd := collectOn.LastBreakdown(); bd != nil {
			fb := bd.Frame()
			vs.busy, vs.wait, vs.imbalance = fb.BusyFrac(), waitFrac(fb), fb.ImbalanceFrac()
			vs.minShare = minScanlineShare(fb)
		}
		vs.steals, vs.profiled = float64(info.Steals), info.Profiled

		vs.oldMS, info = viaAPI(old, "oldalg", "frame.pW")
		vs.oldSteals = float64(info.Steals)
		if bd := old.LastBreakdown(); bd != nil {
			vs.oldWait = waitFrac(bd.Frame())
		}
		vs.scale(l.speed.now())
		l.views = append(l.views, vs)
	}

	// newalg: profile → region → partition, on the profile the loop left.
	if prof := nW.Profile(); prof != nil {
		for _, d := range repeat(50, 2000, 5*time.Millisecond, func() {
			newalg.Partition(prof, newalg.FindRegion(prof), procs, 1)
		}) {
			l.partitionUS = append(l.partitionUS, 1e3*d)
		}
	}

	st := cache.Snapshot()
	addCacheStats(&l.cache, st)
	l.steadyBuilds += st.Builds - warm.Builds
	return nil
}

// addCacheStats sums the counters the benchmark reports over several caches.
func addCacheStats(sum *volcache.Stats, s volcache.Stats) {
	sum.Builds += s.Builds
	sum.Hits += s.Hits
	sum.Misses += s.Misses
	sum.Evictions += s.Evictions
	sum.Bytes += s.Bytes
}

// column extracts one rung from every viewpoint sample.
func (l *ladder) column(f func(*viewSample) float64) []float64 {
	out := make([]float64, len(l.views))
	for i := range l.views {
		out[i] = f(&l.views[i])
	}
	return out
}

// report folds the samples into the library layers' metrics.
func (l *ladder) report(m map[string]value) {
	set := func(name string, v float64) { m[name] = single(v) }
	med := func(f func(*viewSample) float64) float64 { return median(l.column(f)) }
	W := float64(l.procs)

	set("classify.build_ms", median(l.classifyMS))
	set("rle.encode_ms", median(l.encodeMS))
	set("rle.bytes", float64(l.rleBytes))
	set("volcache.builds", float64(l.cache.Builds))
	set("volcache.hits", float64(l.cache.Hits))
	set("volcache.misses", float64(l.cache.Misses))
	set("volcache.evictions", float64(l.cache.Evictions))
	set("volcache.bytes", float64(l.cache.Bytes))
	set("volcache.steady_builds", float64(l.steadyBuilds))
	set("volcache.hit_ns", median(l.hitNS))
	set("pool.new_renderer_ms", median(l.newRendererMS))
	set("pool.first_frame_ms", median(l.firstFrameMS))
	set("pool.acquire_release_ns", l.acquireReleaseNS)
	set("xform.factorize_us", med(func(v *viewSample) float64 { return v.factorizeUS }))
	set("render.setup_us", med(func(v *viewSample) float64 { return v.setupUS }))
	set("img.clear_us", med(func(v *viewSample) float64 { return v.clearUS }))

	set("composite.frame_ms", med(func(v *viewSample) float64 { return v.compMS }))
	for _, mode := range []shearwarp.Mode{shearwarp.ModeComposite, shearwarp.ModeMIP, shearwarp.ModeIsosurface} {
		var xs []float64
		for i := range l.views {
			if l.views[i].mode == mode {
				xs = append(xs, l.views[i].compMS)
			}
		}
		set("composite.frame_ms."+mode.String(), median(xs)) // 0: no frame of this mode on this workload
	}
	set("composite.samples_per_frame", med(func(v *viewSample) float64 { return float64(v.samples) }))
	set("composite.skips_per_frame", med(func(v *viewSample) float64 { return float64(v.skips) }))
	var compNS, samples, warpNS, pixels float64
	for i := range l.views {
		v := &l.views[i]
		compNS, samples = compNS+v.compMS*1e6, samples+float64(v.samples)
		warpNS, pixels = warpNS+v.warpMS*1e6, pixels+float64(v.pixels)
	}
	set("composite.ns_per_sample", ratio(compNS, samples))
	set("composite.share_of_serial", med(func(v *viewSample) float64 { return v.compMS / v.serialMS }))
	set("warp.frame_ms", med(func(v *viewSample) float64 { return v.warpMS }))
	set("warp.ns_per_pixel", ratio(warpNS, pixels))
	set("warp.share_of_serial", med(func(v *viewSample) float64 { return v.warpMS / v.serialMS }))
	set("render.serial_frame_ms", med(func(v *viewSample) float64 { return v.serialMS }))
	layersMS := func(v *viewSample) float64 { return (v.setupUS+v.clearUS)/1e3 + v.compMS + v.warpMS }
	set("render.unattributed_frac", med(func(v *viewSample) float64 { return 1 - layersMS(v)/v.serialMS }))

	set("newalg.frame_ms.p1", med(func(v *viewSample) float64 { return v.p1MS }))
	set("newalg.frame_ms.pW", med(func(v *viewSample) float64 { return v.pwMS }))
	speedup := med(func(v *viewSample) float64 { return v.serialMS / v.pwMS })
	set("newalg.speedup_pW", speedup)
	set("newalg.efficiency", speedup/W)
	set("newalg.overhead_ms", med(func(v *viewSample) float64 { return v.p1MS - (v.clearUS/1e3 + v.compMS + v.warpMS) }))
	set("newalg.busy_frac", med(func(v *viewSample) float64 { return v.busy }))
	set("newalg.wait_frac", med(func(v *viewSample) float64 { return v.wait }))
	set("newalg.imbalance_frac", med(func(v *viewSample) float64 { return v.imbalance }))
	set("newalg.min_worker_scanline_share", med(func(v *viewSample) float64 { return v.minShare }))
	var steals, oldSteals, profiled float64
	for i := range l.views {
		steals, oldSteals = steals+l.views[i].steals, oldSteals+l.views[i].oldSteals
		if l.views[i].profiled {
			profiled++
		}
	}
	n := float64(len(l.views))
	set("newalg.steals_per_frame", steals/n)
	set("newalg.profiled_frame_frac", profiled/n)
	set("newalg.partition_us", median(l.partitionUS))
	set("oldalg.frame_ms.pW", med(func(v *viewSample) float64 { return v.oldMS }))
	set("oldalg.speedup_pW", med(func(v *viewSample) float64 { return v.serialMS / v.oldMS }))
	set("oldalg.wait_frac", med(func(v *viewSample) float64 { return v.oldWait }))
	set("oldalg.steals_per_frame", oldSteals/n)
	set("perf.collect_overhead_frac", med(func(v *viewSample) float64 { return v.collectOnMS/v.collectOffMS - 1 }))
}
