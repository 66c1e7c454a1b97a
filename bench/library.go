package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"shearwarp"
	"shearwarp/internal/volcache"
)

// The library workloads: a program calling Renderer.RenderCtx in an
// animation loop, one caller, closed loop. A frame is one RenderCtx return.

// libRig is what setup builds: one NewParallel renderer per scene over
// shared preprocessing.
type libRig struct {
	pvs   []*shearwarp.PreparedVolume
	mains []*shearwarp.Renderer
}

func (r *libRig) close() {
	for _, re := range r.mains {
		re.Close()
	}
}

// libSetup goes from raw volume bytes to the first verified frame of every
// scene: classification, RLE encode of the needed axis, renderer
// construction, first render.
func libSetup(w *workload, procs int) (*libRig, error) {
	var pb ppmBuf
	rig, cache := &libRig{}, volcache.New(0)
	for _, s := range w.scenes {
		v := s.vol
		pv, err := shearwarp.PrepareVolumeMode(v.Data, v.Nx, v.Ny, v.Nz, s.transfer(), s.mode, 0, procs, cache)
		if err != nil {
			return nil, err
		}
		re, err := pv.NewRenderer(shearwarp.Config{Algorithm: shearwarp.NewParallel, Procs: procs})
		if err != nil {
			return nil, err
		}
		rig.pvs, rig.mains = append(rig.pvs, pv), append(rig.mains, re)
		im, _, err := re.RenderCtx(context.Background(), s.views[0][0], s.views[0][1])
		if err != nil {
			return nil, err
		}
		if pb.frame(im) != s.oracle[0] {
			return nil, fmt.Errorf("setup: first frame of %s differs from the oracle", s.name)
		}
	}
	return rig, nil
}

// repeatSetup measures set-up on fresh objects: at least 3 times, and up to
// 9 while the repetitions are cheap, so the median of a 30 ms set-up is as
// steady as that of a 500 ms one. Set-up is computing throughout, so each
// repetition is scaled to nominal machine speed by the yardstick readings
// taken while it runs. The last rig is kept for the run.
func repeatSetup[T any](yard *yardstick, setup func() (T, error), closeRig func(T)) (T, value, error) {
	var keep T
	var secs []float64
	total := 0.0
	for rep := 0; rep < 3 || (rep < 9 && total < 2); rep++ {
		if rep > 0 {
			closeRig(keep)
		}
		runtime.GC() // every repetition starts from the same heap state
		var rig T
		var err error
		var d float64
		track := yard.during(func() {
			t0 := time.Now()
			rig, err = setup()
			d = time.Since(t0).Seconds()
		})
		if err != nil {
			return keep, value{}, err
		}
		secs, total, keep = append(secs, d*track.meanFactor()), total+d, rig
	}
	return keep, overSlices(secs), nil
}

// libFrame renders one viewpoint and returns the wall time inside
// RenderCtx in ms. After the timer stops the frame is read out as PPM
// bytes, hashed and compared with the oracle: the byte-identity contract.
// The read-out is part of the animation loop, so its CPU and its row
// buffer count in cpu_ms_per_frame and alloc_kb_per_frame.
func libFrame(res *result, pb *ppmBuf, re *shearwarp.Renderer, s *scene, vi int) float64 {
	t0 := time.Now()
	im, _, err := re.RenderCtx(context.Background(), s.views[vi][0], s.views[vi][1])
	d := time.Since(t0)
	res.Attempted++
	if err != nil || pb.frame(im) != s.oracle[vi] {
		res.Failed++
	}
	return ms(d)
}

// mainPerRound is how many main frames a round holds; the scenes take
// turns, so it is a multiple of every library workload's scene count.
const mainPerRound = 6

// frameRec is one timed main frame.
type frameRec struct {
	ms    float64
	scene int
	view  int
}

// roundRec is one round's main block: mainPerRound frames back to back.
type roundRec struct {
	at      time.Time
	wall    time.Duration
	cpu     time.Duration
	allocKB float64 // per frame
}

// minSamples is the fewest frame-time samples a slice should hold, so that
// at least ten lie beyond its 95th percentile.
const minSamples = 200

// runLibrary measures a library workload. A slice is a sequence of rounds;
// a round is a yardstick reading (when the last is yardPeriod old), mainPerRound frames on the main
// (NewParallel) renderers, then the Serial twin — and on rotate-256 the
// OldParallel twin — rendering the viewpoint one of those frames just
// rendered. Interleaving this finely is what lets the twins and the
// yardstick see the same machine as the frames they are compared with.
func runLibrary(w *workload, e env) (*result, error) {
	if mainPerRound%len(w.scenes) != 0 {
		return nil, fmt.Errorf("%s: %d scenes do not divide a round of %d frames", w.def.Name, len(w.scenes), mainPerRound)
	}
	if err := buildOracle(w.scenes, e.W); err != nil {
		return nil, err
	}
	yard := newYardstick(e.W)
	rig, setup, err := repeatSetup(yard, func() (*libRig, error) { return libSetup(w, e.W) }, (*libRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()

	// Twins share the kept rig's preprocessing: same volume, same encoding.
	var serial, old []*shearwarp.Renderer
	for _, pv := range rig.pvs {
		re, err := pv.NewRenderer(shearwarp.Config{Algorithm: shearwarp.Serial})
		if err != nil {
			return nil, err
		}
		serial = append(serial, re)
		if w.oldTwin {
			re, err := pv.NewRenderer(shearwarp.Config{Algorithm: shearwarp.OldParallel, Procs: e.W})
			if err != nil {
				return nil, err
			}
			old = append(old, re)
		}
	}

	res := &result{Workload: w.def.Name, Metrics: map[string]value{"setup_s": setup}}
	var pb ppmBuf
	render := func(re *shearwarp.Renderer, sc, vi int) float64 {
		return libFrame(res, &pb, re, w.scenes[sc], vi)
	}
	// Lazy set-up finishes before timing.
	for sc, s := range w.scenes {
		for _, vi := range s.warmViews() {
			render(rig.mains[sc], sc, vi)
		}
	}
	for _, twins := range [][]*shearwarp.Renderer{serial, old} {
		for sc, re := range twins {
			render(re, sc, 0)
		}
	}

	cursor := make([]int, len(w.scenes)) // each scene's animation continues across slices
	var p50, p95, fps, cpuMs, allocKB, speedup, rawP50, serialP50, oldP50 []float64
	var mem0, mem1 runtime.MemStats
	for sl := 0; sl < slices; sl++ {
		speed := speedMeter{yard: yard}
		var frames []frameRec
		var rounds []roundRec
		var serialMS, serialRatio, oldMS []float64
		for end := time.Now().Add(sliceDur(e.Seconds)); time.Now().Before(end); {
			speed.now()

			runtime.ReadMemStats(&mem0)
			cpu0, t0 := cpuTime(), time.Now()
			for k := 0; k < mainPerRound; k++ {
				sc := k % len(w.scenes)
				vi := w.scenes[sc].frame(cursor[sc])
				cursor[sc]++
				frames = append(frames, frameRec{render(rig.mains[sc], sc, vi), sc, vi})
			}
			wall, cpu := time.Since(t0), cpuTime()-cpu0
			runtime.ReadMemStats(&mem1)
			rounds = append(rounds, roundRec{t0, wall, cpu, float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1024 / mainPerRound})

			// The twins take the scenes in turn, one viewpoint per round.
			f := frames[len(frames)-mainPerRound+len(rounds)%len(w.scenes)]
			t := render(serial[f.scene], f.scene, f.view)
			serialMS, serialRatio = append(serialMS, t), append(serialRatio, t/f.ms)
			if w.oldTwin {
				oldMS = append(oldMS, render(old[f.scene], f.scene, f.view))
			}
		}
		if len(frames) < minSamples {
			fmt.Fprintf(os.Stderr, "bench: %s slice %d holds %d samples, fewer than %d\n", w.def.Name, sl, len(frames), minSamples)
		}

		// Times at nominal machine speed: every round is scaled by the
		// yardstick readings around it.
		raw, norm := make([]float64, len(frames)), make([]float64, len(frames))
		var wallN, cpuN float64
		perFrameKB := make([]float64, len(rounds))
		for r, rd := range rounds {
			k := speed.track.factor(rd.at)
			for i := r * mainPerRound; i < (r+1)*mainPerRound; i++ {
				raw[i], norm[i] = frames[i].ms, frames[i].ms*k
			}
			wallN, cpuN = wallN+rd.wall.Seconds()*k, cpuN+ms(rd.cpu)*k
			perFrameKB[r] = rd.allocKB
		}
		n := float64(len(frames))
		p50, p95 = append(p50, percentile(norm, 50)), append(p95, percentile(norm, 95))
		fps, cpuMs = append(fps, n/wallN), append(cpuMs, cpuN/n)
		// The renderers keep their scratch in sync.Pools, so whenever a
		// collection (fed by the twins' garbage) empties them a few frames
		// reallocate it; the median round leaves those bursts out and reads
		// the steady allocation per frame.
		allocKB = append(allocKB, median(perFrameKB))
		speedup = append(speedup, median(serialRatio))
		rawP50, serialP50 = append(rawP50, percentile(raw, 50)), append(serialP50, median(serialMS))
		if w.oldTwin {
			oldP50 = append(oldP50, median(oldMS))
		}
	}

	res.Metrics["frame_ms_p50"] = overSlices(p50)
	res.Metrics["frame_ms_p95"] = overSlices(p95)
	res.Metrics["throughput_fps"] = overSlices(fps)
	res.Metrics["cpu_ms_per_frame"] = overSlices(cpuMs)
	res.Metrics["alloc_kb_per_frame"] = overSlices(allocKB)
	res.Metrics["speedup_vs_serial"] = overSlices(speedup)
	res.Extra = append(res.Extra,
		fmt.Sprintf("as the clock read, not scaled to nominal machine speed: frame_ms_p50 %.4f ms", overSlices(rawP50).V),
		fmt.Sprintf("serial twin frame_ms_p50 %.4f ms (as the clock read)", overSlices(serialP50).V))
	if w.oldTwin {
		res.Extra = append(res.Extra, fmt.Sprintf("old-parallel twin (Procs %d) frame_ms_p50 %.4f ms (as the clock read)", e.W, overSlices(oldP50).V))
	}
	return res, nil
}
