package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"shearwarp"
	"shearwarp/internal/server"
	"shearwarp/internal/telemetry"
	"shearwarp/internal/volcache"
)

// The traced run. After a workload's untraced run the benchmark runs it
// again, shorter, with its own span recorder on, and climbs the layer
// ladders on the workload's inputs. Every per-layer metric comes from
// here; end-to-end metrics never do. The difference between the traced
// and the untraced main loop is the tracing overhead.

// serverDefaultProcs is server.Config's default worker count inside each
// parallel render: the W of the library ladder on the service workloads.
const serverDefaultProcs = 4

// Shares of the traced run's time.
const (
	refShare        = 0.10 // main loop, twice: half its frames or requests are traced
	pacedRefShare   = 0.15 // service: open loop, for the driver's own health
	svcLadderShare  = 0.30
	libLadderShare  = 0.70 // library workloads
	libLadderShareS = 0.35 // service workloads
)

func runTraced(w *workload, e env, outDir string) (*result, error) {
	if err := buildOracle(w.scenes, e.W); err != nil {
		return nil, err
	}
	res := &result{Workload: w.def.Name, Traced: true, Metrics: make(map[string]value)}
	for _, d := range perLayer {
		res.Metrics[d.Name] = value{} // 0: the layer is not on this workload's path
	}
	rec := newRecorder()
	total := time.Duration(e.Seconds * float64(time.Second))
	var err error
	if w.service {
		err = tracedService(w, e, rec, res, total)
	} else {
		err = tracedLibrary(w, e, rec, res, total)
	}
	if err != nil {
		return nil, err
	}

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.Metrics["proc.peak_rss_mb"] = single(peakRSSMiB())
	res.Metrics["proc.gc_pause_ms"] = single(float64(mem.PauseTotalNs) / 1e6)
	res.Metrics["proc.goroutines_end"] = single(float64(settledGoroutines()))

	path, err := rec.write(outDir, w.def.Name, e)
	if err != nil {
		return nil, err
	}
	res.Extra = append(res.Extra, "trace written to "+path)
	res.Extra = append(res.Extra, "layer self time = its spans minus their child spans:")
	for _, lt := range rec.selfTimes() {
		res.Extra = append(res.Extra, fmt.Sprintf("  %-10s spans %6d  total %10.3f ms  self %10.3f ms  count %d",
			lt.Layer, lt.Spans, ms(lt.Total), ms(lt.Self), lt.Counts))
	}
	return res, nil
}

// settledGoroutines counts goroutines after teardown, giving closed
// connections' and parked workers' goroutines a moment to exit.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 20 && n > 2; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func tracedLibrary(w *workload, e env, rec *recorder, res *result, total time.Duration) error {
	rig, err := libSetup(w, e.W)
	if err != nil {
		return err
	}
	var pb ppmBuf
	for sc, s := range w.scenes {
		for _, vi := range s.warmViews() {
			libFrame(res, &pb, rig.mains[sc], s, vi)
		}
	}
	// The workload's main loop, every other pass over the scenes with a span
	// around each frame. An iteration's time counts all of it — render,
	// read-out, span — at nominal machine speed.
	speed := speedMeter{yard: newYardstick(e.W)}
	var times []float64
	var busy, frames [2]float64 // untraced, traced
	for n, end := 0, time.Now().Add(2*share(total, refShare)); time.Now().Before(end); n++ {
		k, t0 := speed.now(), time.Now()
		sc, pass := n%len(w.scenes), n/len(w.scenes)
		s := w.scenes[sc]
		traced := pass % 2
		var id int64
		if traced == 1 {
			id = rec.begin(rec.newTrace(), 0, "driver", "frame")
		}
		times = append(times, k*libFrame(res, &pb, rig.mains[sc], s, s.frame(pass)))
		if traced == 1 {
			rec.end(id, 1)
		}
		busy[traced], frames[traced] = busy[traced]+k*time.Since(t0).Seconds(), frames[traced]+1
	}
	fpsU, fpsT := ratio(frames[0], busy[0]), ratio(frames[1], busy[1])
	rig.close()

	lad := &ladder{rec: rec, res: res, procs: e.W, speed: speedMeter{yard: speed.yard}}
	for _, s := range w.scenes {
		if err := lad.scene(s, share(total, libLadderShare)/time.Duration(len(w.scenes))); err != nil {
			return err
		}
	}
	lad.report(res.Metrics)
	res.Metrics["driver.frame_ms_p99"] = single(percentile(times, 99))
	res.Metrics["driver.trace_overhead_frac"] = single(1 - ratio(fpsT, fpsU))
	return nil
}

// gwMetrics is the part of the gateway's /metrics JSON the benchmark reads.
type gwMetrics struct {
	Requests int64 `json:"requests"`
	Retries  int64 `json:"retries"`
	Hedges   int64 `json:"hedges"`
	Backends []struct {
		Requests int64 `json:"requests"`
	} `json:"backends"`
}

// serve runs one request through a handler in this process.
func serve(h http.Handler, path, accept string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// scrape reads every backend's and the gateway's /metrics JSON.
func (f *fleet) scrape() (servers []server.MetricsSnapshot, gw gwMetrics, err error) {
	for _, s := range f.servers {
		var m server.MetricsSnapshot
		if err := json.Unmarshal(serve(s.Handler(), "/metrics", "").Body.Bytes(), &m); err != nil {
			return nil, gw, fmt.Errorf("server /metrics: %w", err)
		}
		servers = append(servers, m)
	}
	if f.gw != nil {
		if err := json.Unmarshal(serve(f.gw.Handler(), "/metrics", "").Body.Bytes(), &gw); err != nil {
			return nil, gw, fmt.Errorf("gateway /metrics: %w", err)
		}
	}
	return servers, gw, nil
}

func tracedService(w *workload, e env, rec *recorder, res *result, total time.Duration) error {
	f, err := svcSetup(w, e.W)
	if err != nil {
		return err
	}
	defer f.close() // closing twice is harmless; the fleet also closes before the library ladder
	run := &svcRun{w: w, f: f, ver: newVerifier(w), res: res, yard: newYardstick(e.W)}
	run.warm(e.W)

	// The workload's phases, shorter: the closed loop with a span around
	// every other request, then the open loop, between two scrapes of the
	// program's own counters.
	s0, g0, err := f.scrape()
	if err != nil {
		return err
	}
	f.rec = rec
	c := run.closed(e.W, 2*share(total, refShare))
	f.rec = nil
	_, lats, late, backlog := run.paced(e.W, int(share(total, pacedRefShare).Seconds()*w.rate), c.cpuRawMs)
	s1, g1, err := f.scrape()
	if err != nil {
		return err
	}

	set := func(name string, v float64) { res.Metrics[name] = single(v) }
	var cache volcache.Stats // summed over the backends, at the second scrape
	var steadyBuilds, shed, canceled int64
	wait := &telemetry.HistogramSnapshot{}
	for i := range s1 {
		addCacheStats(&cache, s1[i].Cache)
		steadyBuilds += s1[i].Cache.Builds - s0[i].Cache.Builds
		shed += s1[i].Endpoints["/render"].Rejected - s0[i].Endpoints["/render"].Rejected
		canceled += s1[i].Canceled - s0[i].Canceled
		if h, ok := s1[i].Histograms["admission_wait_seconds"]; ok {
			wait.Merge(h.Snapshot())
		}
	}

	if err := serviceLadder(w, f, run, rec, share(total, svcLadderShare)); err != nil {
		return err
	}
	res.Failed += run.ver.resolve()
	f.close()

	lad := &ladder{rec: rec, res: res, procs: serverDefaultProcs, speed: speedMeter{yard: run.yard}}
	for _, s := range w.scenes {
		if err := lad.scene(s, share(total, libLadderShareS)/time.Duration(len(w.scenes))); err != nil {
			return err
		}
	}
	lad.report(res.Metrics)

	// volcache as the servers saw it: everything up to the end of setup and
	// warm-up, then what the loaded phases added (steady state: nothing).
	set("volcache.builds", float64(cache.Builds))
	set("volcache.hits", float64(cache.Hits))
	set("volcache.misses", float64(cache.Misses))
	set("volcache.evictions", float64(cache.Evictions))
	set("volcache.bytes", float64(cache.Bytes))
	set("volcache.steady_builds", float64(steadyBuilds))
	set("server.shed", float64(shed))
	set("server.frames_canceled", float64(canceled))
	set("server.admission_wait_ms_p95", float64(wait.Quantile(0.95))/1e6)
	if w.fleet {
		reqs := float64(g1.Requests - g0.Requests)
		var attempts, most float64
		for i := range g1.Backends {
			n := float64(g1.Backends[i].Requests - g0.Backends[i].Requests)
			attempts, most = attempts+n, max(most, n)
		}
		set("gateway.attempts_per_request", ratio(attempts, reqs))
		set("gateway.hedge_frac", ratio(float64(g1.Hedges-g0.Hedges), reqs))
		set("gateway.retry_frac", ratio(float64(g1.Retries-g0.Retries), reqs))
		set("gateway.backend_share_max", ratio(most, attempts))
	}
	set("driver.frame_ms_p99", percentile(lats, 99))
	set("driver.late_ms_p95", percentile(late, 95))
	set("driver.backlog_end", float64(backlog))
	set("driver.trace_overhead_frac", c.traceOverhead)
	return nil
}

// serviceLadder replays the workload's request list one request at a time
// through every rung of the service: the front door, the owning backend
// over loopback, that backend's handler in this process, the library
// render the handler does, and the encode. Each rung re-executes the same
// request, so a rung's span minus its child's is the layer's own cost.
func serviceLadder(w *workload, f *fleet, run *svcRun, rec *recorder, budget time.Duration) error {
	res, ver := run.res, run.ver
	ctx := context.Background()
	deadline := time.Now().Add(budget)

	// The handler's twin with span tracing off, and the library renderers
	// a default server builds.
	quiet, err := newServer(w, server.Config{TraceRing: -1})
	if err != nil {
		return err
	}
	defer quiet.Close()
	var lib []*shearwarp.Renderer
	for sc, s := range w.scenes {
		v := s.vol
		pv, err := shearwarp.PrepareVolumeMode(v.Data, v.Nx, v.Ny, v.Nz, s.transfer(), s.mode, 0, serverDefaultProcs, nil)
		if err != nil {
			return err
		}
		re, err := pv.NewRenderer(shearwarp.Config{Algorithm: shearwarp.NewParallel, Procs: serverDefaultProcs, CollectStats: true})
		if err != nil {
			return err
		}
		defer re.Close()
		lib = append(lib, re)
		for _, vi := range s.warmViews() { // as svcRun.warm does for the fleet
			serve(quiet.Handler(), w.path(request{sc, vi}, false), "")
			if _, _, err := re.RenderCtx(ctx, s.views[vi][0], s.views[vi][1]); err != nil {
				return err
			}
		}
	}

	backend := make(map[string]int)
	for i, b := range f.backs {
		backend[b.URL] = i
	}
	observe := func(rq request, body []byte, err error) {
		res.Attempted++
		if err != nil {
			res.Failed++
			return
		}
		ver.observe(rq, body)
	}
	handler := func(srv *server.Server, path string) (body []byte, err error) {
		rr := serve(srv.Handler(), path, "")
		if rr.Code != http.StatusOK {
			err = fmt.Errorf("status %d", rr.Code)
		}
		return rr.Body.Bytes(), err
	}

	speed := speedMeter{yard: run.yard}
	var front, direct, handlerMS, quietMS, renderMS, encodeMS, overhead, unattributed []float64
	var encBytes int
	var buf, enc bytes.Buffer
	for i := 0; i < 10 || (i < 300 && time.Now().Before(deadline)); i++ {
		rq := w.reqs[(run.cursor+i)%len(w.reqs)]
		path, vw := w.path(rq, false), w.scenes[rq.scene].views[rq.view]
		tr := rec.newTrace()

		// The front door; behind a gateway, then the backend it chose.
		own, parent := 0, int64(0)
		var d0, d1 time.Duration
		if w.fleet {
			parent = rec.begin(tr, 0, "gateway", "request")
			hdr, err := f.get(f.front.URL+path, &buf)
			d0 = rec.end(parent, int64(buf.Len()))
			observe(rq, buf.Bytes(), err)
			own = backend[hdr.Get("X-Shearwarp-Backend")]
		}
		httpSpan := rec.begin(tr, parent, "server", "http")
		_, err := f.get(f.backs[own].URL+path, &buf)
		d1 = rec.end(httpSpan, int64(buf.Len()))
		observe(rq, buf.Bytes(), err)
		if !w.fleet {
			d0 = d1
		}

		// The backend's handler in this process, and its twin without span
		// tracing; alternate which goes first.
		var d2, d2q time.Duration
		var handlerSpan int64
		traced := func() {
			handlerSpan = rec.begin(tr, httpSpan, "server", "handler")
			body, err := handler(f.servers[own], path)
			d2 = rec.end(handlerSpan, int64(len(body)))
			observe(rq, body, err)
		}
		untraced := func() {
			t0 := time.Now()
			body, err := handler(quiet, path)
			d2q = time.Since(t0)
			observe(rq, body, err)
		}
		if i%2 == 0 {
			traced()
			untraced()
		} else {
			untraced()
			traced()
		}

		// What the handler does with the library: render, then encode.
		var im *shearwarp.Image
		d3 := rec.call(tr, handlerSpan, "render", "frame", func() int64 {
			im, _, err = lib[rq.scene].RenderCtx(ctx, vw[0], vw[1])
			return 1
		})
		if err != nil {
			return err
		}
		d4 := rec.call(tr, handlerSpan, "img", "encode-"+w.format, func() int64 {
			enc.Reset()
			if w.format == "png" {
				err = im.WritePNG(&enc)
			} else {
				err = im.WritePPM(&enc)
			}
			return int64(enc.Len())
		})
		observe(rq, enc.Bytes(), err)
		encBytes = enc.Len()

		// One client, one request at a time: every rung is computing on
		// an otherwise idle machine, so all scale with its speed.
		k := speed.now()
		front, direct = append(front, k*ms(d0)), append(direct, k*ms(d1))
		handlerMS, quietMS = append(handlerMS, k*ms(d2)), append(quietMS, k*ms(d2q))
		renderMS, encodeMS = append(renderMS, k*ms(d3)), append(encodeMS, k*ms(d4))
		overhead = append(overhead, k*ms(d2-d3-d4))
		// What no layer number explains: the request minus gateway overhead
		// (d0-d1), server overhead (d2-d3-d4), render and encode.
		unattributed = append(unattributed, ms(d1-d2)/ms(d0))
	}

	set := func(name string, v float64) { res.Metrics[name] = single(v) }
	set("server.http_ms_p50", percentile(direct, 50))
	set("server.handler_ms_p50", percentile(handlerMS, 50))
	set("server.loopback_ms", percentile(direct, 50)-percentile(handlerMS, 50))
	set("server.overhead_ms", median(overhead))
	set("service.unattributed_frac", median(unattributed))
	set("telemetry.span_overhead_frac", percentile(handlerMS, 50)/percentile(quietMS, 50)-1)
	if w.format == "png" {
		set("img.encode_png_ms", median(encodeMS))
		set("img.png_bytes", float64(encBytes))
	} else {
		set("img.encode_ppm_us", 1e3*median(encodeMS))
	}
	if w.fleet {
		set("gateway.http_ms_p50", percentile(front, 50))
		set("gateway.overhead_ms_p50", percentile(front, 50)-percentile(direct, 50))
		set("gateway.overhead_ms_p95", percentile(front, 95)-percentile(direct, 95))
	}
	res.Extra = append(res.Extra, fmt.Sprintf("service ladder: %d requests; library render p50 %.4f ms, encode p50 %.4f ms",
		len(front), median(renderMS), median(encodeMS)))

	// telemetry: one JSON and one Prometheus scrape.
	h := f.servers[0].Handler()
	set("telemetry.scrape_ms", median(repeat(3, 7, budget/20, func() {
		rec.call(rec.newTrace(), 0, "telemetry", "scrape", func() int64 {
			return int64(serve(h, "/metrics", "").Body.Len() + serve(h, "/metrics", "text/plain").Body.Len())
		})
	})))
	return nil
}
