package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"shearwarp/internal/gateway"
	"shearwarp/internal/server"
)

// The service workloads: an HTTP client of shearwarpd / shearwarpgw. A
// frame is one complete 2xx response body. Everything runs in this
// process on loopback; servers and gateway are built with their shipped
// defaults, so a change that fixes the defaults is measured.

// fleet is what setup builds: the backends, the optional gateway, and the
// front door clients talk to.
type fleet struct {
	servers []*server.Server
	backs   []*httptest.Server
	gw      *gateway.Gateway
	front   *httptest.Server
	hc      *http.Client

	// corrupt, when set, may damage response i's body before it is
	// verified (the negative self-test).
	corrupt func(i int, body []byte)
	// rec, when set, receives a span around every other request the driver
	// sends (the traced run); the requests between them are the untraced
	// reference on the same machine.
	rec *recorder
}

func (f *fleet) close() {
	f.hc.CloseIdleConnections()
	if f.gw != nil {
		f.front.Close()
		f.gw.Close()
	}
	for _, b := range f.backs {
		b.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
}

// newClient returns an HTTP client that never holds more than conns
// connections to a host.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			MaxIdleConns:        2 * conns,
			DisableCompression:  true,
		},
	}
}

// newServer builds one backend with every tenant registered.
func newServer(w *workload, cfg server.Config) (*server.Server, error) {
	srv := server.New(cfg)
	for _, s := range w.scenes {
		v := s.vol
		if err := srv.RegisterVolume(s.name, v.Data, v.Nx, v.Ny, v.Nz, s.transfer()); err != nil {
			srv.Close()
			return nil, err
		}
	}
	return srv, nil
}

// newFleet builds the servers (and gateway) with their shipped defaults,
// without sending a request.
func newFleet(w *workload, conns int) (*fleet, error) {
	f := &fleet{hc: newClient(conns)}
	nBack := 1
	if w.fleet {
		nBack = 2
	}
	var urls []string
	for b := 0; b < nBack; b++ {
		srv, err := newServer(w, server.Config{})
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		ts := httptest.NewServer(srv.Handler())
		f.backs = append(f.backs, ts)
		urls = append(urls, ts.URL)
	}
	f.front = f.backs[0]
	if w.fleet {
		gw, err := gateway.New(gateway.Config{Backends: urls})
		if err != nil {
			f.close()
			return nil, err
		}
		f.gw = gw
		f.front = httptest.NewServer(gw.Handler())
	}
	return f, nil
}

// svcSetup goes from raw volume bytes to the first verified 2xx of every
// tenant, through the gateway where there is one.
func svcSetup(w *workload, conns int) (*fleet, error) {
	f, err := newFleet(w, conns)
	if err != nil {
		return nil, err
	}
	ver := newVerifier(w)
	var buf bytes.Buffer
	for sc := range w.scenes {
		r := request{sc, 0}
		if _, err := f.get(f.front.URL+w.path(r, false), &buf); err != nil {
			f.close()
			return nil, fmt.Errorf("setup: first frame of %s: %w", w.scenes[sc].name, err)
		}
		ver.observe(r, buf.Bytes())
	}
	if bad := ver.resolve(); bad > 0 {
		f.close()
		return nil, fmt.Errorf("setup: %d first frames differ from the oracle", bad)
	}
	return f, nil
}

// get fetches one URL into buf and returns the response header. Any
// status but 2xx is an error.
func (f *fleet) get(url string, buf *bytes.Buffer) (http.Header, error) {
	resp, err := f.hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, buf.String())
	}
	return resp.Header, nil
}

// sample is one request as the client saw it.
type sample struct {
	start  time.Time
	lat    float64 // ms, from the due time (paced) or the send (closed) to the last body byte
	late   float64 // ms the send ran behind its due time (paced only)
	failed bool    // transport error or non-2xx
	traced bool    // a span was recorded around it
}

// job is one request for the load driver: what to fetch, how to verify it,
// and when it is due (zero: now).
type job struct {
	req  request
	path string
	due  time.Time
}

// drive is the load driver: clients goroutines, one connection each, claim
// job indices in order until next reports no more. A job with a due time
// is sent at that time, or at once if the client is already late — so
// arrivals queue in the driver when every client is busy, and latency
// counts from the due time.
func (f *fleet) drive(clients int, ver *verifier, next func(i int) (job, bool)) []sample {
	var claim atomic.Int64
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(claim.Add(1) - 1)
				j, ok := next(i)
				if !ok {
					return
				}
				var s sample
				from := time.Now()
				if !j.due.IsZero() {
					if wait := j.due.Sub(from); wait > 0 {
						time.Sleep(wait)
					}
					from = j.due
				}
				s.start = time.Now()
				s.late = ms(s.start.Sub(from))
				var id int64
				if s.traced = f.rec != nil && i%2 == 1; s.traced {
					id = f.rec.begin(f.rec.newTrace(), 0, "driver", "request")
				}
				_, err := f.get(f.front.URL+j.path, &buf)
				if s.traced {
					f.rec.end(id, int64(buf.Len()))
				}
				s.lat = ms(time.Since(from))
				if err != nil {
					s.failed = true
				} else {
					if f.corrupt != nil {
						f.corrupt(i, buf.Bytes())
					}
					ver.observe(j.req, buf.Bytes())
				}
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// tally counts a phase's samples into the result and returns the latencies
// of the frames that arrived.
func tally(res *result, samples []sample) (lats []float64) {
	for _, s := range samples {
		res.Attempted++
		if s.failed {
			res.Failed++
		} else {
			lats = append(lats, s.lat)
		}
	}
	return lats
}

// svcRun is one fleet under load: the cursor into the workload's request
// sequence carries on from phase to phase.
type svcRun struct {
	w      *workload
	f      *fleet
	ver    *verifier
	res    *result
	yard   *yardstick
	cursor int
}

func (r *svcRun) job(i int) job {
	rq := r.w.reqs[(r.cursor+i)%len(r.w.reqs)]
	return job{req: rq, path: r.w.path(rq, false)}
}

// closedOut is what a closed phase measured; the times are at nominal
// machine speed except cpuRawMs, CPU per frame as the clock read it.
type closedOut struct {
	fps, cpuMs, allocKB, cpuRawMs float64
	traceOverhead                 float64 // traced over untraced median latency, minus 1 (traced run only)
}

// closed runs clients back to back for d: verified-frame throughput, and
// CPU and allocation per frame. The phase saturates the cores, so its
// times scale with their speed in full.
func (r *svcRun) closed(clients int, d time.Duration) closedOut {
	var mem0, mem1 runtime.MemStats
	var samples []sample
	var wall, cpu time.Duration
	track := r.yard.during(func() {
		runtime.ReadMemStats(&mem0)
		cpu0, t0 := cpuTime(), time.Now()
		end := t0.Add(d)
		samples = r.f.drive(clients, r.ver, func(i int) (job, bool) {
			return r.job(i), time.Now().Before(end)
		})
		wall, cpu = time.Since(t0), cpuTime()-cpu0
		runtime.ReadMemStats(&mem1)
	})
	r.cursor += len(samples)
	n, k := float64(len(tally(r.res, samples))), track.meanFactor()
	var lat [2][]float64
	for _, s := range samples {
		if !s.failed && s.traced {
			lat[1] = append(lat[1], s.lat)
		} else if !s.failed {
			lat[0] = append(lat[0], s.lat)
		}
	}
	return closedOut{
		traceOverhead: ratio(median(lat[1]), median(lat[0])) - 1,
		fps:           ratio(n, wall.Seconds()*k),
		cpuMs:         ratio(ms(cpu)*k, n),
		allocKB:       ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc)/1024, n),
		cpuRawMs:      ratio(ms(cpu), n),
	}
}

// paced runs an open loop of n requests at the workload's fixed rate over
// clients connections. It returns the latencies from the due times — as
// the clock read them and at nominal machine speed — how late the sends
// ran, and how many requests had not been sent when the last one fell due
// (the backlog).
//
// At a third of capacity a request's latency is part waiting (wake-ups,
// hops between goroutines and sockets) and part computing, and only the
// computing slows down with the cores. cpuMs, the CPU a frame costs
// (measured by the closed phase of the same slice), over the median
// latency, at most 1, is taken as the computing share; that share of
// every latency is scaled by the yardstick, the rest is left as read.
func (r *svcRun) paced(clients, n int, cpuMs float64) (raw, lats, late []float64, backlog int) {
	interval := time.Duration(float64(time.Second) / r.w.rate)
	var samples []sample
	var lastDue time.Time
	track := r.yard.during(func() {
		t0 := time.Now().Add(interval)
		lastDue = t0.Add(time.Duration(n) * interval)
		samples = r.f.drive(clients, r.ver, func(i int) (job, bool) {
			j := r.job(i)
			j.due = t0.Add(time.Duration(i) * interval)
			return j, i < n
		})
	})
	r.cursor += len(samples)
	raw = tally(r.res, samples)
	computing := min(1, ratio(cpuMs, median(raw)))
	for _, s := range samples {
		late = append(late, s.late)
		if s.start.After(lastDue) {
			backlog++
		}
		if !s.failed {
			lats = append(lats, s.lat*(1-computing*(1-track.factor(s.start))))
		}
	}
	return raw, lats, late, backlog
}

// twins sends, from one client, each request twice back to back — as the
// workload sends it and with alg=serial — for d, and returns the
// per-request latency ratios serial/default.
func (r *svcRun) twins(d time.Duration) (ratios []float64) {
	end := time.Now().Add(d)
	samples := r.f.drive(1, r.ver, func(i int) (job, bool) {
		j := r.job(i / 2)
		if i%2 == 1 {
			j.path = r.w.path(j.req, true)
		}
		// A pair is finished even when the time runs out between its halves.
		return j, time.Now().Before(end) || i%2 == 1
	})
	r.cursor += len(samples) / 2
	tally(r.res, samples)
	for i := 0; i+1 < len(samples); i += 2 {
		if !samples[i].failed && !samples[i+1].failed {
			ratios = append(ratios, samples[i+1].lat/samples[i].lat)
		}
	}
	return ratios
}

// warm finishes lazy set-up before timing: every tenant is sent its warm
// viewpoints, as the workload sends them and as the serial twin.
func (r *svcRun) warm(clients int) {
	var jobs []job
	for sc, s := range r.w.scenes {
		for _, vi := range s.warmViews() {
			rq := request{sc, vi}
			jobs = append(jobs, job{req: rq, path: r.w.path(rq, false)}, job{req: rq, path: r.w.path(rq, true)})
		}
	}
	tally(r.res, r.f.drive(clients, r.ver, func(i int) (job, bool) {
		if i >= len(jobs) {
			return job{}, false
		}
		return jobs[i], true
	}))
}

// Phase shares of a service slice: clients back to back, the open loop,
// and the serial twins.
const (
	closedShare = 0.35
	pacedShare  = 0.50
	twinShare   = 0.15
)

func runService(w *workload, e env, corrupt func(i int, body []byte)) (*result, error) {
	if err := buildOracle(w.scenes, e.W); err != nil {
		return nil, err
	}
	yard := newYardstick(e.W)
	f, setup, err := repeatSetup(yard, func() (*fleet, error) { return svcSetup(w, e.W) }, (*fleet).close)
	if err != nil {
		return nil, err
	}
	defer f.close()
	f.corrupt = corrupt

	res := &result{Workload: w.def.Name, Metrics: map[string]value{"setup_s": setup}}
	run := &svcRun{w: w, f: f, ver: newVerifier(w), res: res, yard: yard}
	run.warm(e.W)

	sd := sliceDur(e.Seconds)
	nPaced := int(share(sd, pacedShare).Seconds() * w.rate)
	var p50, p95, fps, cpuMs, allocKB, speedup, backlogs, rawP50 []float64
	for sl := 0; sl < slices; sl++ {
		c := run.closed(e.W, share(sd, closedShare))
		fps, cpuMs, allocKB = append(fps, c.fps), append(cpuMs, c.cpuMs), append(allocKB, c.allocKB)

		raw, lats, _, backlog := run.paced(e.W, nPaced, c.cpuRawMs)
		rawP50 = append(rawP50, percentile(raw, 50))
		if len(lats) < minSamples {
			fmt.Fprintf(os.Stderr, "bench: %s slice %d holds %d samples, fewer than %d\n", w.def.Name, sl, len(lats), minSamples)
		}
		p50, p95 = append(p50, percentile(lats, 50)), append(p95, percentile(lats, 95))
		backlogs = append(backlogs, float64(backlog))

		speedup = append(speedup, median(run.twins(share(sd, twinShare))))
	}
	res.Failed += run.ver.resolve()

	// A generator that cannot keep its schedule measures itself, not the
	// service: the run is refused rather than reported.
	if b := overSlices(backlogs); b.V > float64(e.W) {
		res.Invalid = fmt.Sprintf("the driver's backlog at the end of a paced slice is %g requests (more than W=%d) in most slices", b.V, e.W)
	}
	res.Metrics["frame_ms_p50"] = overSlices(p50)
	res.Metrics["frame_ms_p95"] = overSlices(p95)
	res.Metrics["throughput_fps"] = overSlices(fps)
	res.Metrics["cpu_ms_per_frame"] = overSlices(cpuMs)
	res.Metrics["alloc_kb_per_frame"] = overSlices(allocKB)
	res.Metrics["speedup_vs_serial"] = overSlices(speedup)
	res.Extra = append(res.Extra, fmt.Sprintf("as the clock read, not scaled to nominal machine speed: frame_ms_p50 %.4f ms", overSlices(rawP50).V))
	return res, nil
}
