package server

import (
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"shearwarp"
	"shearwarp/internal/perf"
	"shearwarp/internal/rendermode"
	"shearwarp/internal/slo"
	"shearwarp/internal/telemetry"
	"shearwarp/internal/volcache"
)

// serverTelemetry is the request-level observability state of the
// service: latency histograms, the tracer that retains the requests'
// span traces, and the structured logger. It is always constructed (the
// histograms are a few KiB of atomics and recording is a handful of
// atomic adds per request), and every request records its spans, since
// the frame's phase breakdown is derived from them; only retaining traces
// can be turned off, through Config.TraceRing < 0.
type serverTelemetry struct {
	logger *slog.Logger
	tracer *telemetry.Tracer // nil when traces are not retained
	reqSeq atomic.Uint64     // request-ID source (also the trace ID)

	hQueue *telemetry.Histogram // admission wait, including the zero-wait fast path
	hBuild *telemetry.Histogram // volcache builder invocations (classify / RLE-encode)
	// hPhase holds the per-worker per-frame phase duration histograms,
	// one set per render mode: a MIP frame (no early termination) and a
	// composite frame have different phase profiles, and folding them
	// into one histogram would hide both.
	hPhase [rendermode.Count][perf.NumPhases]*telemetry.Histogram
}

func newServerTelemetry(cfg *Config) *serverTelemetry {
	t := &serverTelemetry{
		logger: cfg.Logger,
		hQueue: telemetry.NewHistogram(),
		hBuild: telemetry.NewHistogram(),
	}
	if t.logger == nil {
		t.logger = telemetry.DiscardLogger()
	}
	for m := range t.hPhase {
		for ph := range t.hPhase[m] {
			t.hPhase[m][ph] = telemetry.NewHistogram()
		}
	}
	if cfg.TraceRing >= 0 {
		t.tracer = telemetry.NewTracer(cfg.TraceRing, 0, 0)
	}
	return t
}

// observePhases feeds one frame's per-worker phase durations into the
// frame's render mode's phase histograms: each worker's time in each
// phase is one observation, so the histograms answer "how long does a
// worker's warp phase take" across frames and workers, per mode.
func (t *serverTelemetry) observePhases(mode shearwarp.Mode, fb *perf.FrameBreakdown) {
	if fb == nil || int(mode) >= len(t.hPhase) {
		return
	}
	h := &t.hPhase[mode]
	for i := range fb.PerWorker {
		w := &fb.PerWorker[i]
		h[perf.PhaseClear].ObserveNS(w.ClearNS)
		h[perf.PhaseCompositeOwn].ObserveNS(w.CompositeOwnNS)
		h[perf.PhaseCompositeSteal].ObserveNS(w.CompositeStealNS)
		h[perf.PhaseWait].ObserveNS(w.WaitNS)
		h[perf.PhaseWarp].ObserveNS(w.WarpNS)
		h[perf.PhaseTotal].ObserveNS(w.TotalNS)
	}
}

// onCacheBuild is wired into volcache.Cache.OnBuild: every completed
// builder invocation lands in the build histogram and the log.
func (t *serverTelemetry) onCacheBuild(k volcache.Key, d time.Duration, err error) {
	t.hBuild.Observe(d)
	if err != nil {
		t.logger.Error("cache build failed",
			"volume", k.Volume, "transfer", k.Transfer, "axis", int(k.Axis),
			"duration_ms", float64(d)/1e6, "err", err)
		return
	}
	t.logger.Info("cache build",
		"volume", k.Volume, "transfer", k.Transfer, "axis", int(k.Axis),
		"duration_ms", float64(d)/1e6)
}

// reqTrace is one /render request's in-flight trace state, shared
// between the handler and its render goroutine. Exactly one of them
// finalizes (Adds) the trace; the owner field arbitrates:
//
//   - The handler, exiting early (watchdog, deadline, disconnect),
//     stores its HTTP status and CASes owner 0->1: the render goroutine
//     finalizes when the frame eventually drains.
//   - The render goroutine, done first, stashes the built trace and
//     CASes owner 0->2: the handler finalizes after writing the
//     response body.
//   - Whoever loses the CAS observes the winner's state through the
//     atomic's happens-before edge and finalizes itself.
type reqTrace struct {
	tel     *serverTelemetry
	id      uint64
	attempt int
	label   string
	startNS int64
	spans   *telemetry.FrameSpans // pooled recorder attached to the renderer
	owner   atomic.Int32          // 0 = undecided, 1 = handler left, 2 = goroutine done
	status  atomic.Int32          // HTTP status stored by the handler on early exit
	tr      *telemetry.Trace      // built by the goroutine, published by the 0->2 CAS
}

// startTrace begins tracing one /render request. The recorder comes from
// telemetry's pool and goes back when the trace is built: every request
// records, retained or not, because its phases are derived from the spans.
func (t *serverTelemetry) startTrace(id uint64, attempt int, label string, start time.Time) *reqTrace {
	return &reqTrace{
		tel:     t,
		id:      id,
		attempt: attempt,
		label:   label,
		startNS: telemetry.SinceEpoch(start),
		spans:   telemetry.GetSpans(),
	}
}

// record adds one request-lane span.
func (rt *reqTrace) record(name string, start time.Time, d time.Duration) {
	rt.spans.Record(-1, name, telemetry.CatRequest, start, d)
}

// build converts the recorder's contents into a Trace — nil when traces
// are not retained — and returns the recorder to the pool. Call once,
// after every recording worker is done; add fills in status and duration.
func (rt *reqTrace) build() *telemetry.Trace {
	tr := rt.tel.tracer.Capture(rt.spans, telemetry.Trace{
		ID: rt.id, Attempt: rt.attempt, Label: rt.label, StartNS: rt.startNS,
	})
	rt.spans = nil
	return tr
}

// add hands tr, with its final status and its duration up to now, to the
// tracer. A nil tr (traces not retained) is dropped.
func (rt *reqTrace) add(tr *telemetry.Trace, status int, now time.Time) {
	if tr == nil {
		return
	}
	tr.Status = status
	tr.DurNS = telemetry.SinceEpoch(now) - rt.startNS
	rt.tel.tracer.Add(tr)
}

// finish finalizes a trace the handler owned start to finish (rejection
// paths that never spawned a render goroutine).
func (rt *reqTrace) finish(status int, now time.Time) {
	rt.add(rt.build(), status, now)
}

// handlerExits is called when the handler abandons the request while the
// render goroutine still runs (watchdog, deadline, disconnect): it
// leaves finalization to the goroutine, unless the goroutine got there
// first, in which case the handler finalizes.
func (rt *reqTrace) handlerExits(status int, now time.Time) {
	rt.status.Store(int32(status))
	if rt.owner.CompareAndSwap(0, 1) {
		return // the render goroutine finalizes when the frame drains
	}
	// The goroutine finished in the same instant (owner == 2): its trace
	// is published; finalize it here.
	rt.add(rt.tr, status, now)
}

// goroutineDone is called by the render goroutine after the frame
// drained (and, on success, was encoded). If the handler already left,
// the goroutine finalizes with the handler's status; otherwise the trace
// is published for the handler to finish after writing the response.
func (rt *reqTrace) goroutineDone(now time.Time) {
	rt.tr = rt.build()
	if rt.owner.CompareAndSwap(0, 2) {
		return // handler still active; it finalizes after the response
	}
	rt.add(rt.tr, int(rt.status.Load()), now)
}

// handlerFinishes finalizes on the handler's normal path: the render
// goroutine has published the trace (owner == 2, its encode span
// included) and the response has been written.
func (rt *reqTrace) handlerFinishes(status int, now time.Time) {
	rt.add(rt.tr, status, now)
}

// handleMetrics is GET /metrics: per-endpoint counters, preprocessing
// cache counters, and the cumulative per-phase render-time totals, as the
// JSON document (whose shape predates the histograms and stays
// byte-compatible with its consumers; quantiles live on /debug/latency)
// or, for a Prometheus scraper, as the text exposition with the latency
// histograms' _bucket/_sum/_count series.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	telemetry.ServeMetrics(w, r, s.tel.logger, func() any { return s.metricsSnapshot() }, s.writeProm)
}

// writeProm writes the Prometheus text exposition of every counter and
// histogram the JSON snapshot carries, plus the latency histograms that
// exist only here.
func (s *Server) writeProm(pw *telemetry.PromWriter) {
	snap := s.metricsSnapshot()

	pw.Gauge("shearwarpd_uptime_seconds", "Seconds since the server started.", snap.UptimeSeconds)
	pw.Gauge("shearwarpd_build_info", "Build identity; the value is always 1.", 1,
		"version", snap.Build.Version, "commit", snap.Build.Commit,
		"go_version", snap.Build.GoVersion)
	pw.Gauge("shearwarpd_gomaxprocs", "Scheduler parallelism (GOMAXPROCS).", float64(snap.Build.GOMAXPROCS))
	pw.Gauge("shearwarpd_goroutines", "Live goroutines.", float64(snap.Build.Goroutines))
	pw.Counter("shearwarpd_frames_total", "Successfully rendered frames.", float64(snap.Frames))
	pw.Gauge("shearwarpd_rendering", "Frames rendering right now.", float64(snap.Rendering))
	pw.Gauge("shearwarpd_queued", "Requests waiting for admission.", float64(snap.Queued))
	pw.Counter("shearwarpd_frame_panics_total", "Frames that failed with a recovered panic.", float64(snap.Panics))
	pw.Counter("shearwarpd_frames_canceled_total", "Frames aborted by deadline or disconnect.", float64(snap.Canceled))
	pw.Counter("shearwarpd_watchdog_stalls_total", "Frames cancelled by the watchdog.", float64(snap.Stalls))
	pw.Counter("shearwarpd_renderers_replaced_total", "Renderers discarded and rebuilt after a panic.", float64(snap.Replaced))

	// Per-endpoint counters: one metric name per counter, one series per
	// path, emitted in sorted path order so the exposition is stable.
	paths := make([]string, 0, len(snap.Endpoints))
	for p := range snap.Endpoints {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	emit := func(name, help string, v func(EndpointSnapshot) float64) {
		for _, p := range paths {
			pw.Counter(name, help, v(snap.Endpoints[p]), "path", p)
		}
	}
	emit("shearwarpd_requests_total", "Completed requests.",
		func(e EndpointSnapshot) float64 { return float64(e.Requests) })
	emit("shearwarpd_request_errors_total", "Responses with status >= 400.",
		func(e EndpointSnapshot) float64 { return float64(e.Errors) })
	emit("shearwarpd_request_server_errors_total", "Responses with status >= 500.",
		func(e EndpointSnapshot) float64 { return float64(e.ServerErrors) })
	emit("shearwarpd_requests_rejected_total", "Admission rejections (503).",
		func(e EndpointSnapshot) float64 { return float64(e.Rejected) })
	emit("shearwarpd_request_deadlines_total", "Deadline expiries (504).",
		func(e EndpointSnapshot) float64 { return float64(e.Deadlines) })
	for _, p := range paths {
		pw.Gauge("shearwarpd_requests_in_flight", "Requests in flight.",
			float64(snap.Endpoints[p].InFlight), "path", p)
	}
	for _, p := range paths {
		if h := s.endpointHist(p); h != nil {
			pw.Histogram("shearwarpd_request_duration_seconds",
				"End-to-end request latency.", h.Snapshot(), "path", p)
		}
	}

	pw.Counter("shearwarpd_cache_hits_total", "Preprocessing cache hits.", float64(snap.Cache.Hits))
	pw.Counter("shearwarpd_cache_misses_total", "Preprocessing cache misses.", float64(snap.Cache.Misses))
	pw.Counter("shearwarpd_cache_builds_total", "Completed cache builds.", float64(snap.Cache.Builds))
	pw.Counter("shearwarpd_cache_build_failures_total", "Failed cache builds.", float64(snap.Cache.Failures))
	pw.Counter("shearwarpd_cache_evictions_total", "Cache entries evicted.", float64(snap.Cache.Evictions))
	pw.Gauge("shearwarpd_cache_entries", "Cached entries.", float64(snap.Cache.Entries))
	pw.Gauge("shearwarpd_cache_bytes", "Accounted cache bytes.", float64(snap.Cache.Bytes))

	// Per-tenant cache traffic, labeled with the registered volume name
	// (or the raw fingerprint for tenants the server no longer knows).
	// Metric-major order: the exposition format wants each metric's
	// series contiguous under one HELP/TYPE block.
	tenantName := func(t TenantCacheStats) string {
		if t.Name != "" {
			return t.Name
		}
		return t.Volume
	}
	for _, t := range snap.CacheTenants {
		pw.Counter("shearwarpd_cache_tenant_hits_total", "Cache hits per volume.", float64(t.Hits), "tenant", tenantName(t))
	}
	for _, t := range snap.CacheTenants {
		pw.Counter("shearwarpd_cache_tenant_misses_total", "Cache misses per volume.", float64(t.Misses), "tenant", tenantName(t))
	}
	for _, t := range snap.CacheTenants {
		pw.Counter("shearwarpd_cache_tenant_evictions_total", "Cache evictions per volume.", float64(t.Evictions), "tenant", tenantName(t))
	}
	for _, t := range snap.CacheTenants {
		pw.Gauge("shearwarpd_cache_tenant_bytes", "Cached bytes per volume.", float64(t.Bytes), "tenant", tenantName(t))
	}

	// SLO gauges: one series per objective, mirroring /debug/slo.
	sloGauge := func(name, help string, v func(slo.Status) float64) {
		for _, st := range snap.SLO {
			pw.Gauge(name, help, v(st), "slo", st.Name)
		}
	}
	sloGauge("shearwarpd_slo_target", "Objective target good-fraction.",
		func(st slo.Status) float64 { return st.Target })
	sloGauge("shearwarpd_slo_compliance", "Good fraction over the budget window.",
		func(st slo.Status) float64 { return st.Compliance })
	sloGauge("shearwarpd_slo_error_budget_remaining", "Error budget left (1 = untouched, <0 = blown).",
		func(st slo.Status) float64 { return st.BudgetRemaining })
	sloGauge("shearwarpd_slo_fast_burn", "Burn rate over the fast alert window.",
		func(st slo.Status) float64 { return st.FastBurn })
	sloGauge("shearwarpd_slo_slow_burn", "Burn rate over the slow alert window.",
		func(st slo.Status) float64 { return st.SlowBurn })
	sloGauge("shearwarpd_slo_alerting", "1 while the objective's multi-window burn alert fires.",
		func(st slo.Status) float64 {
			if st.Alerting {
				return 1
			}
			return 0
		})

	// Cumulative per-phase totals (counters, nanoseconds summed across
	// workers and frames), then the per-frame phase histograms.
	phases := make([]string, 0, len(snap.Phases.PhaseNS))
	for ph := range snap.Phases.PhaseNS {
		phases = append(phases, ph)
	}
	sort.Strings(phases)
	for _, ph := range phases {
		pw.Counter("shearwarpd_phase_ns_total",
			"Cumulative phase time, summed across workers and frames.",
			float64(snap.Phases.PhaseNS[ph]), "phase", ph)
	}
	for m := rendermode.Mode(0); m < rendermode.Count; m++ {
		for ph := perf.Phase(0); ph < perf.NumPhases; ph++ {
			pw.Histogram("shearwarpd_phase_seconds",
				"Per-worker per-frame render phase durations.",
				s.tel.hPhase[m][ph].Snapshot(), "phase", ph.String(), "mode", m.String())
		}
	}

	pw.Histogram("shearwarpd_admission_wait_seconds",
		"Time requests spent waiting for an admission slot.", s.tel.hQueue.Snapshot())
	pw.Histogram("shearwarpd_cache_build_seconds",
		"Wall time of preprocessing cache builds.", s.tel.hBuild.Snapshot())
}

// endpointCounters maps a served path to its metrics block.
func (s *Server) endpointCounters(path string) *endpointMetrics {
	switch path {
	case "/render":
		return &s.mRender
	case "/healthz":
		return &s.mHealth
	case "/readyz":
		return &s.mReady
	case "/metrics":
		return &s.mMetrics
	case "/debug/spans":
		return &s.mSpans
	case "/debug/latency":
		return &s.mLatency
	case "/debug/slo":
		return &s.mSLO
	case "/debug/dash":
		return &s.mDash
	case "/debug/profile":
		return &s.mProfile
	}
	return nil
}

// endpointHist maps an exposition path to its latency histogram.
func (s *Server) endpointHist(path string) *telemetry.Histogram {
	if m := s.endpointCounters(path); m != nil {
		return m.latency
	}
	return nil
}

// LatencySnapshot is the /debug/latency document: quantile digests of
// every latency histogram, in milliseconds.
type LatencySnapshot struct {
	Endpoints     map[string]telemetry.QuantileSummary `json:"endpoints"`
	AdmissionWait telemetry.QuantileSummary            `json:"admission_wait"`
	CacheBuild    telemetry.QuantileSummary            `json:"cache_build"`
	Phases        map[string]telemetry.QuantileSummary `json:"phases"`
	// RenderExemplars are the render histogram's retained slow-request
	// exemplars, slowest first: each links a latency region back to the
	// request that landed there and, while the span ring still holds it,
	// to that request's trace.
	RenderExemplars []ExemplarRef `json:"render_exemplars"`
}

// ExemplarRef is one exemplar joined with its trace's whereabouts.
type ExemplarRef struct {
	ValueMS       float64 `json:"value_ms"`
	ReqID         uint64  `json:"req_id"`
	TraceRetained bool    `json:"trace_retained"`
	TraceURL      string  `json:"trace_url,omitempty"`
}

// renderExemplars joins the render histogram's exemplars with the span
// tracer's retained traces.
func (s *Server) renderExemplars() []ExemplarRef {
	exs := s.mRender.latency.Exemplars()
	out := make([]ExemplarRef, 0, len(exs))
	for _, ex := range exs {
		ref := ExemplarRef{ValueMS: float64(ex.ValueNS) / 1e6, ReqID: ex.ReqID}
		if s.tel.tracer != nil && s.tel.tracer.Find(ex.ReqID) != nil {
			ref.TraceRetained = true
			ref.TraceURL = fmt.Sprintf("/debug/spans?id=%d", ex.ReqID)
		}
		out = append(out, ref)
	}
	return out
}

// latencySnapshot digests every histogram into quantile summaries.
func (s *Server) latencySnapshot() LatencySnapshot {
	ls := LatencySnapshot{
		Endpoints: map[string]telemetry.QuantileSummary{
			"/render":        s.mRender.latency.Snapshot().Summary(),
			"/healthz":       s.mHealth.latency.Snapshot().Summary(),
			"/metrics":       s.mMetrics.latency.Snapshot().Summary(),
			"/debug/spans":   s.mSpans.latency.Snapshot().Summary(),
			"/debug/latency": s.mLatency.latency.Snapshot().Summary(),
			"/debug/slo":     s.mSLO.latency.Snapshot().Summary(),
			"/debug/dash":    s.mDash.latency.Snapshot().Summary(),
			"/debug/profile": s.mProfile.latency.Snapshot().Summary(),
		},
		AdmissionWait:   s.tel.hQueue.Snapshot().Summary(),
		CacheBuild:      s.tel.hBuild.Snapshot().Summary(),
		Phases:          make(map[string]telemetry.QuantileSummary, int(rendermode.Count)*int(perf.NumPhases)),
		RenderExemplars: s.renderExemplars(),
	}
	// Composite keeps the bare phase names the document has always used;
	// the other modes qualify theirs as "phase@mode".
	for m := rendermode.Mode(0); m < rendermode.Count; m++ {
		for ph := perf.Phase(0); ph < perf.NumPhases; ph++ {
			key := ph.String()
			if m != rendermode.Composite {
				key += "@" + m.String()
			}
			ls.Phases[key] = s.tel.hPhase[m][ph].Snapshot().Summary()
		}
	}
	return ls
}

// handleLatency is GET /debug/latency: the quantile digests as JSON.
func (s *Server) handleLatency(w http.ResponseWriter, r *http.Request) {
	telemetry.WriteJSON(w, http.StatusOK, s.latencySnapshot(), s.tel.logger)
}
