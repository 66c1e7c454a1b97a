// Command shearwarp renders a volume to a PPM image with any of the
// repository's renderers: the serial shear warper, the old and new
// parallel algorithms, or the ray-casting baseline. With -frames > 1 it
// renders a rotation animation and reports per-frame statistics.
//
// Usage:
//
//	shearwarp -kind mri -size 128 -alg new -procs 8 -yaw 30 -pitch 15 -out frame.ppm
//	shearwarp -kind ct -mode mip -out mip.png
//	shearwarp -mode iso -iso 140 -alg new -procs 8 -out surface.png
//	shearwarp -in brain.vol -alg serial -frames 24 -step 5
//	shearwarp -alg old -procs 8 -frames 16 -stats -statsjson phases.json
//	shearwarp -alg new -frames 100 -trace trace.out -spans spans.json
//
// -procs defaults to 0, which means GOMAXPROCS — one worker per core the
// scheduler will use, as in shearwarpd; the per-frame line prints the
// resolved count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"slices"
	"strings"
	"time"

	"shearwarp"
	"shearwarp/internal/cli"
	"shearwarp/internal/perf"
	"shearwarp/internal/telemetry"
)

func main() {
	var vf cli.VolumeFlags
	vf.Register(flag.CommandLine)
	algName := flag.String("alg", "new", "algorithm: serial | old | new | raycast")
	var mode shearwarp.Mode
	var isoThr uint8
	cli.RegisterMode(flag.CommandLine, &mode, &isoThr)
	procs := flag.Int("procs", 0, "workers for the parallel algorithms (0 = GOMAXPROCS)")
	yaw := flag.Float64("yaw", 30, "yaw in degrees")
	pitch := flag.Float64("pitch", 15, "pitch in degrees")
	frames := flag.Int("frames", 1, "number of animation frames")
	step := flag.Float64("step", 5, "yaw degrees per animation frame")
	out := flag.String("out", "", "output image path for the last frame (.ppm or .png)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the render loop to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the render loop) to this file")
	traceFile := flag.String("trace", "", "write a runtime/trace of the render loop to this file")
	statsFlag := flag.Bool("stats", false, "print a per-worker phase breakdown table after each frame")
	statsJSON := flag.String("statsjson", "", "write the per-frame phase breakdowns as JSON to this file (\"-\" = stdout)")
	spansFile := flag.String("spans", "", "write per-frame worker span traces as Chrome trace-event JSON to this file (load in chrome://tracing or ui.perfetto.dev)")
	flag.Parse()

	alg, err := shearwarp.ParseAlgorithm(*algName)
	if err != nil {
		fatal(err)
	}
	if *procs <= 0 {
		*procs = runtime.GOMAXPROCS(0)
	}
	collect := *statsFlag || *statsJSON != ""
	cfg := shearwarp.Config{Algorithm: alg, Procs: *procs,
		Mode: mode, IsoThreshold: isoThr, CollectStats: collect}
	if (collect || *spansFile != "") && alg == shearwarp.RayCast {
		fatal(fmt.Errorf("-stats/-statsjson/-spans need a shear-warp algorithm (serial, old, new)"))
	}

	v, tf, err := vf.Load()
	if err != nil {
		fatal(err)
	}
	cfg.Transfer = tf
	r, err := shearwarp.NewRenderer(v.Data, v.Nx, v.Ny, v.Nz, cfg)
	if err != nil {
		fatal(err)
	}

	// The profiles cover only the render loop, not volume loading or
	// preprocessing, so they answer "where do frames spend their time".
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	// The execution trace likewise covers only the render loop; each frame
	// shows up as a "shearwarp.frame" task with per-phase regions.
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			fatal(err)
		}
		defer rtrace.Stop()
	}

	// Span tracing shares one epoch across the whole animation, so the
	// exported Chrome trace lays the frames out end to end on one timeline
	// (one "process" per frame, one row per worker).
	var spanRec *telemetry.FrameSpans
	var spanTraces []*telemetry.Trace
	var spanEpoch time.Time
	if *spansFile != "" {
		spanEpoch = time.Now()
		spanRec = telemetry.NewFrameSpans(spanEpoch)
		r.SetSpanRecorder(spanRec)
	}

	var last *shearwarp.Image
	var breakdowns []*perf.FrameBreakdown
	start := time.Now()
	for i := 0; i < *frames; i++ {
		y := *yaw + float64(i)*(*step)
		t0 := time.Now()
		im, info := r.Render(y, *pitch)
		last = im
		fmt.Printf("frame %2d  yaw %6.1f  %4dx%-4d  %8.2fms  %8d samples  procs %d  steals %d  profiled %v\n",
			i, y, im.Width(), im.Height(),
			float64(time.Since(t0).Microseconds())/1000, info.Samples, *procs, info.Steals, info.Profiled)
		if bd := r.LastBreakdown(); bd != nil {
			fb := bd.Frame()
			if *statsJSON != "" {
				// The renderer reuses its breakdown; keep a copy.
				c := *fb
				c.PerWorker = slices.Clone(fb.PerWorker)
				breakdowns = append(breakdowns, &c)
			}
			if *statsFlag {
				fmt.Print(bd.Table())
			}
		}
		if spanRec != nil {
			spans := spanRec.Spans()
			spanTraces = append(spanTraces, &telemetry.Trace{
				ID:      uint64(i + 1),
				Label:   fmt.Sprintf("frame %d yaw=%.1f", i, y),
				StartNS: t0.Sub(spanEpoch).Nanoseconds(),
				DurNS:   time.Since(t0).Nanoseconds(),
				Dropped: spanRec.Dropped(),
				Spans:   append([]telemetry.Span(nil), spans...),
			})
			spanRec.Reset(spanEpoch)
		}
	}
	elapsed := time.Since(start)

	if *spansFile != "" {
		if err := writeSpans(*spansFile, spanTraces); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *spansFile)
	}

	if *statsJSON != "" {
		if err := writeStatsJSON(*statsJSON, alg.String(), breakdowns); err != nil {
			fatal(err)
		}
		if *statsJSON != "-" {
			fmt.Printf("wrote %s\n", *statsJSON)
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // get up-to-date allocation statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if *frames > 1 {
		fmt.Printf("%d frames in %v (%.1f fps)\n", *frames, elapsed.Round(time.Millisecond),
			float64(*frames)/elapsed.Seconds())
	}

	if *out != "" && last != nil {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if strings.HasSuffix(*out, ".png") {
			err = last.WritePNG(f)
		} else {
			err = last.WritePPM(f)
		}
		if err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

// writeStatsJSON emits the run's per-frame phase breakdowns as one JSON
// document: {"algorithm": ..., "frames": [FrameBreakdown...]}.
func writeStatsJSON(path, alg string, frames []*perf.FrameBreakdown) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Algorithm string                 `json:"algorithm"`
		Frames    []*perf.FrameBreakdown `json:"frames"`
	}{alg, frames})
}

// writeSpans exports the per-frame span traces as one Chrome trace-event
// JSON document.
func writeSpans(path string, traces []*telemetry.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, traces); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "shearwarp:", err)
	os.Exit(1)
}
