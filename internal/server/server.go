// Package server implements shearwarpd, the long-running render service
// in front of the frame-loop renderers: HTTP requests name a registered
// volume and a viewpoint, and the service renders them from a pool of
// persistent Renderers whose view-independent preprocessing (classified
// volume, per-axis RLE encodings) is amortized across requests through an
// LRU cache (internal/volcache).
//
// The service applies the standard production controls around the
// renderer library:
//
//   - bounded concurrency: at most MaxConcurrent frames render at once,
//     with at most MaxQueue requests waiting for admission and a
//     QueueTimeout on the wait (overload answers 503 quickly instead of
//     piling up goroutines);
//   - per-request deadlines: a request that cannot finish before
//     RenderTimeout answers 504, and the frame it may have started is
//     cancelled cooperatively — every render worker polls the frame's
//     abort flag at scanline granularity, so the renderer and the
//     admission slot come back within one scanline of work;
//   - fault isolation: a panic inside any render worker is recovered into
//     a typed *render.FrameError, the request answers 500, the renderer
//     is swapped for a freshly built one, and the daemon keeps serving;
//     an optional watchdog (Config.WatchdogTimeout) cancels and reports
//     frames that stop making progress;
//   - graceful shutdown: Close stops admitting, waits for in-flight
//     frames, and releases the pools' persistent worker goroutines;
//   - observability: per-endpoint request/error/latency counters, cache
//     hit/miss/eviction/build counters, and the cumulative phase
//     breakdown of every rendered frame (derived from the frame's spans),
//     all served by /metrics.
//
// Output contract: a frame rendered through the service is byte-identical
// to one rendered by calling the library directly with the same volume,
// viewpoint and configuration.
package server

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"shearwarp"
	"shearwarp/internal/classify"
	"shearwarp/internal/faultinject"
	"shearwarp/internal/perf"
	"shearwarp/internal/render"
	"shearwarp/internal/slo"
	"shearwarp/internal/telemetry"
	"shearwarp/internal/volcache"
)

// Config tunes the service. The zero value gets the shipped defaults
// from New; RegisterFlags binds shearwarpd's flags to the same ones.
type Config struct {
	Procs int // workers inside each parallel render (default GOMAXPROCS: more only take turns on the cores there are)
	// Algorithm renders requests that omit ?alg. The zero value,
	// shearwarp.AlgorithmAuto, means NewParallel here; Serial stays
	// selectable by naming it, in the Config or per request.
	Algorithm shearwarp.Algorithm
	// Mode is the default render mode when a request omits ?mode
	// (composite, mip, iso).
	Mode shearwarp.Mode
	// IsoThreshold is the default isosurface density threshold when a
	// request omits ?iso (0 = the classifier default). Only consulted in
	// isosurface mode.
	IsoThreshold      uint8
	PoolSize          int           // persistent renderers per (volume, transfer, algorithm) pool (default MaxConcurrent)
	MaxConcurrent     int           // frames rendering at once (default 8)
	MaxQueue          int           // requests waiting for admission before fast 503 (default 4*MaxConcurrent)
	QueueTimeout      time.Duration // longest admission wait (default 5s)
	RenderTimeout     time.Duration // request deadline to start rendering (default 30s)
	CacheBytes        int64         // volcache budget (default 256 MiB; <0 = unbounded)
	OpacityCorrection bool          // forwarded to every renderer
	// WatchdogTimeout, when positive, bounds how long a frame may render
	// after it has started: a frame still running at the deadline is
	// cancelled through its abort flag, counted as a stall, and answered
	// 500. Zero disables the watchdog (the render deadline still applies).
	WatchdogTimeout time.Duration
	// Faults, when non-nil, wires a deterministic fault injector
	// (internal/faultinject) into every renderer and preprocessing build
	// the server creates — the chaos-test hook. Nil in production.
	Faults *faultinject.Injector
	// Logger receives the service's structured logs (request lifecycle,
	// cache builds, watchdog stalls), each /render line carrying the
	// request ID shared with its span trace. Nil discards — the default
	// for embedded servers and tests.
	Logger *slog.Logger
	// TraceRing sizes the per-request span tracer's recent-trace ring
	// (/debug/spans): 0 keeps the default of 64 retained traces (plus
	// head and slowest samples), negative retains none and turns
	// /debug/spans off. Every render records its spans either way: they
	// are what /metrics' phases are derived from.
	TraceRing int
	// SLO lists the service-level objectives the embedded SLO engine
	// evaluates (internal/slo). Nil runs slo.DefaultSpec and an empty
	// list runs no engine; objectives naming endpoints the server does
	// not serve are skipped with a log.
	SLO []slo.Objective
	// SLOInterval is the engine's background sampling period (default
	// 10s; the engine also samples on every /debug/slo and /metrics
	// read); an empty SLO list, not this, turns the engine off.
	SLOInterval time.Duration
}

// defaults is the shipped configuration, stated once: normalize fills
// zero fields from it and RegisterFlags shows it as the flag defaults.
// MaxQueue, PoolSize and Procs are absent because they derive from
// MaxConcurrent and the core count.
var defaults = Config{
	Algorithm:     shearwarp.NewParallel,
	MaxConcurrent: 8,
	QueueTimeout:  5 * time.Second,
	RenderTimeout: 30 * time.Second,
	CacheBytes:    256 << 20,
	TraceRing:     telemetry.DefaultRing,
	SLOInterval:   10 * time.Second,
}

func (c *Config) normalize() {
	if c.Procs < 1 {
		c.Procs = runtime.GOMAXPROCS(0)
	}
	if c.Algorithm == shearwarp.AlgorithmAuto {
		c.Algorithm = defaults.Algorithm
	}
	if c.MaxConcurrent < 1 {
		c.MaxConcurrent = defaults.MaxConcurrent
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.PoolSize < 1 {
		c.PoolSize = c.MaxConcurrent
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = defaults.QueueTimeout
	}
	if c.RenderTimeout == 0 {
		c.RenderTimeout = defaults.RenderTimeout
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = defaults.CacheBytes
	}
	if c.TraceRing == 0 {
		c.TraceRing = defaults.TraceRing
	}
	if c.SLOInterval <= 0 {
		c.SLOInterval = defaults.SLOInterval
	}
}

// RegisterFlags declares shearwarpd's service flags on fs, each bound
// straight into c with its default read from defaults. The flags of
// derived fields (-procs, -pool, -max-queue) default to 0, so they keep
// following -max-concurrent and the core count. -mode and -iso are the
// command's (cli.RegisterMode).
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	c.Algorithm, c.CacheBytes = defaults.Algorithm, defaults.CacheBytes
	fs.Func("alg", "default algorithm: serial | old | new | raycast", func(s string) (err error) {
		c.Algorithm, err = shearwarp.ParseAlgorithm(s)
		return err
	})
	fs.Lookup("alg").DefValue = c.Algorithm.String()
	fs.IntVar(&c.Procs, "procs", 0, "workers inside each parallel render (0 = GOMAXPROCS)")
	fs.IntVar(&c.PoolSize, "pool", 0, "renderers per (volume, transfer, algorithm) pool (0 = max-concurrent)")
	fs.IntVar(&c.MaxConcurrent, "max-concurrent", defaults.MaxConcurrent, "frames rendering at once")
	fs.IntVar(&c.MaxQueue, "max-queue", 0, "requests waiting for admission before 503 (0 = 4*max-concurrent)")
	fs.DurationVar(&c.QueueTimeout, "queue-timeout", defaults.QueueTimeout, "longest admission wait before 503")
	fs.DurationVar(&c.RenderTimeout, "render-timeout", defaults.RenderTimeout, "request deadline to start rendering")
	fs.Func("cache-mb", "preprocessing cache budget in MiB (<0 = unbounded)", func(s string) error {
		mb, err := strconv.ParseInt(s, 10, 64)
		c.CacheBytes = mb << 20
		return err
	})
	fs.Lookup("cache-mb").DefValue = strconv.FormatInt(c.CacheBytes>>20, 10)
	fs.DurationVar(&c.WatchdogTimeout, "watchdog", 0, "cancel frames still rendering after this long and answer 500 (0 = off)")
	faultinject.FlagVar(fs, "inject deterministic faults for chaos testing, e.g. 'panic@composite:w=1;delay@scanline:n=100:d=2ms' (see internal/faultinject)",
		func(in *faultinject.Injector) { c.Faults = in })
	telemetry.LogFlags(fs, &c.Logger)
	fs.IntVar(&c.TraceRing, "trace-ring", defaults.TraceRing, "recent request traces retained for /debug/spans (<0 = none, /debug/spans off)")
	slo.FlagVar(fs, &c.SLO, "service-level objectives for /debug/slo, e.g. 'latency@/render:le=250ms:target=99%;availability@/render:target=99.9%' (empty = engine off)")
	fs.DurationVar(&c.SLOInterval, "slo-interval", defaults.SLOInterval, "SLO engine background sampling period")
}

// volumeRec is one registered volume: the raw data plus its default
// transfer function.
type volumeRec struct {
	name       string
	data       []uint8
	nx, ny, nz int
	transfer   shearwarp.Transfer
}

// poolKey identifies one renderer pool. mode and iso carry the render
// mode and its effective isosurface threshold (0 unless mode is
// isosurface, so requests that spell the default threshold differently
// share a pool).
type poolKey struct {
	volume    string
	transfer  shearwarp.Transfer
	algorithm shearwarp.Algorithm
	mode      shearwarp.Mode
	iso       uint8
}

// bodyPool recycles the buffers encoded frames wait in between the render
// goroutine and the handler's single Write.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// poolEntry lazily builds its pool once; concurrent requests wait on the
// same build.
type poolEntry struct {
	once sync.Once
	pool *shearwarp.RendererPool
	err  error
}

// Server is the render service. Create with New, register volumes, then
// serve Handler. All methods are safe for concurrent use.
type Server struct {
	cfg   Config
	cache *volcache.Cache
	start time.Time

	mu    sync.Mutex
	vols  map[string]*volumeRec
	pools map[poolKey]*poolEntry
	// volKeys joins volume content fingerprints (volcache tenant keys)
	// back to registered names for the per-tenant cache stats.
	volKeys map[string]string

	sem      chan struct{} // admission slots
	waiting  atomic.Int64  // requests blocked on admission
	closed   atomic.Bool
	draining atomic.Bool // /readyz answers 503; /render still serves
	inflight sync.WaitGroup

	cum        perf.Cumulative // phase totals across all rendered frames
	frames     atomic.Int64    // successfully rendered frames
	panics     atomic.Int64    // frames that failed with a recovered panic (*render.FrameError)
	cancels    atomic.Int64    // frames aborted by deadline or client disconnect
	stalls     atomic.Int64    // frames cancelled by the watchdog
	replaced   atomic.Int64    // renderers discarded and rebuilt after a panic
	renderHook func()          // test hook: runs while holding an admission slot

	mRender, mHealth, mMetrics endpointMetrics
	mSpans, mLatency           endpointMetrics
	mSLO, mDash, mProfile      endpointMetrics
	mReady                     endpointMetrics
	tel                        *serverTelemetry
	mux                        *http.ServeMux

	slo       *slo.Engine   // nil when Config.SLO is empty or construction failed
	sloStop   chan struct{} // closed by Close to stop the sampling loop
	profiling atomic.Bool   // single-flight guard for /debug/profile
}

// New builds a server. Volumes must be registered before requests name
// them; everything else is ready immediately.
func New(cfg Config) *Server {
	cfg.normalize()
	s := &Server{
		cfg:     cfg,
		cache:   volcache.New(cfg.CacheBytes),
		start:   time.Now(),
		vols:    make(map[string]*volumeRec),
		pools:   make(map[poolKey]*poolEntry),
		volKeys: make(map[string]string),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		sloStop: make(chan struct{}),
	}
	s.tel = newServerTelemetry(&cfg)
	s.cache.OnBuild = s.tel.onCacheBuild
	for _, m := range []*endpointMetrics{&s.mRender, &s.mHealth, &s.mReady, &s.mMetrics,
		&s.mSpans, &s.mLatency, &s.mSLO, &s.mDash, &s.mProfile} {
		m.latency = telemetry.NewHistogram()
	}
	// The render endpoint's histogram retains exemplars: tail buckets
	// link back to the request (and its span trace) that landed there.
	s.mRender.latency.EnableExemplars()
	s.slo = slo.Build(cfg.SLO, s.sloSource, s.tel.logger)
	if s.slo != nil {
		go s.sloLoop(cfg.SLOInterval)
	}
	spans := s.instrument(&s.mSpans, telemetry.SpansHandler(s.tel.tracer, s.tel.logger))
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/render", s.instrument(&s.mRender, s.handleRender))
	s.mux.HandleFunc("/healthz", s.instrument(&s.mHealth, s.handleHealthz))
	s.mux.HandleFunc("/readyz", s.instrument(&s.mReady, s.handleReadyz))
	s.mux.HandleFunc("/metrics", s.instrument(&s.mMetrics, s.handleMetrics))
	s.mux.HandleFunc("/debug/spans", spans)
	// Alias: the gateway's stitched-trace URLs use /debug/trace; serving
	// the same handler here lets a trace URL recorded against a bare
	// backend (no gateway) resolve to that backend's span sets.
	s.mux.HandleFunc("/debug/trace", spans)
	s.mux.HandleFunc("/debug/latency", s.instrument(&s.mLatency, s.handleLatency))
	s.mux.HandleFunc("/debug/slo", s.instrument(&s.mSLO, slo.Handler(s.slo, s.tel.logger)))
	s.mux.HandleFunc("/debug/dash", s.instrument(&s.mDash, dashHandler))
	s.mux.HandleFunc("/debug/profile", s.instrument(&s.mProfile, s.handleProfile))
	return s
}

// RegisterVolume makes a raw 8-bit volume (X fastest) renderable under
// the given name, classified by default with the given transfer function.
func (s *Server) RegisterVolume(name string, data []uint8, nx, ny, nz int, transfer shearwarp.Transfer) error {
	if name == "" {
		return errors.New("server: empty volume name")
	}
	if len(data) != nx*ny*nz || nx < 2 || ny < 2 || nz < 2 {
		return fmt.Errorf("server: volume %q has invalid shape %dx%dx%d for %d samples", name, nx, ny, nz, len(data))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.vols[name]; dup {
		return fmt.Errorf("server: volume %q already registered", name)
	}
	s.vols[name] = &volumeRec{name: name, data: data, nx: nx, ny: ny, nz: nz, transfer: transfer}
	// The cache keys entries by content fingerprint; remember the join so
	// per-tenant cache stats can carry the human-readable name.
	s.volKeys[shearwarp.VolumeKey(data, nx, ny, nz)] = name
	return nil
}

// Volumes lists the registered volume names.
func (s *Server) Volumes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.vols))
	for n := range s.vols {
		names = append(names, n)
	}
	return names
}

// Procs returns the worker count of each parallel render, as resolved
// from Config.Procs.
func (s *Server) Procs() int { return s.cfg.Procs }

// Handler returns the service's HTTP handler (/render, /healthz,
// /metrics).
func (s *Server) Handler() http.Handler { return s.mux }

// CacheStats returns the preprocessing cache counters — tests use it to
// assert that repeated requests hit instead of re-classifying.
func (s *Server) CacheStats() volcache.Stats { return s.cache.Snapshot() }

// BeginDrain flips the server unready: /readyz starts answering 503
// (with Retry-After) so fleet health checkers stop routing here, while
// /render keeps serving whatever still arrives. Call it at the start of
// graceful shutdown, before the HTTP listener closes, so a gateway
// drains this backend ahead of the listener going away. Idempotent;
// Close implies it.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close stops admitting new requests, waits for in-flight requests, and
// shuts down every renderer pool (releasing their persistent worker
// goroutines). The HTTP listener, if any, is the caller's to close —
// typically via http.Server.Shutdown before Close (with BeginDrain
// called first so health checkers saw the drain coming).
func (s *Server) Close() {
	s.draining.Store(true)
	if s.closed.Swap(true) {
		return
	}
	close(s.sloStop)
	s.inflight.Wait()
	s.mu.Lock()
	pools := make([]*poolEntry, 0, len(s.pools))
	for _, pe := range s.pools {
		pools = append(pools, pe)
	}
	s.pools = make(map[poolKey]*poolEntry)
	s.mu.Unlock()
	for _, pe := range pools {
		if pe.pool != nil {
			pe.pool.Close()
		}
	}
}

// instrument wraps a handler with the endpoint's counters.
func (s *Server) instrument(m *endpointMetrics, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		m.inFlight.Add(1)
		t0 := time.Now()
		h(sw, r)
		m.inFlight.Add(-1)
		elapsed := time.Since(t0)
		m.nanos.Add(int64(elapsed))
		if sw.exemplarID != 0 {
			m.latency.ObserveExemplarNS(int64(elapsed), sw.exemplarID)
		} else {
			m.latency.Observe(elapsed)
		}
		m.requests.Add(1)
		if sw.status >= 400 {
			m.errors.Add(1)
		}
		if sw.status >= 500 {
			m.srvErrors.Add(1)
		}
		switch sw.status {
		case http.StatusServiceUnavailable:
			m.rejected.Add(1)
		case http.StatusGatewayTimeout:
			m.deadlines.Add(1)
		}
	}
}

// httpUnavailable writes a 503 carrying a Retry-After hint: shed and
// draining responses tell well-behaved clients (the gateway, loadgen)
// when re-arrival is worth trying instead of leaving them to hammer an
// overloaded or departing backend.
func httpUnavailable(w http.ResponseWriter, retryAfterSecs int, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs))
	telemetry.WriteError(w, http.StatusServiceUnavailable, format, args...)
}

// admit claims an admission slot, waiting up to QueueTimeout while the
// request context lives. It returns a release func on success, or an
// HTTP status and message on rejection.
func (s *Server) admit(ctx context.Context) (release func(), status int, msg string) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0, ""
	default:
	}
	// All slots busy: join the bounded admission queue.
	if s.waiting.Add(1) > int64(s.cfg.MaxQueue) {
		s.waiting.Add(-1)
		return nil, http.StatusServiceUnavailable, "admission queue full"
	}
	defer s.waiting.Add(-1)
	timer := time.NewTimer(s.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0, ""
	case <-timer.C:
		return nil, http.StatusServiceUnavailable, "admission queue timeout"
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, http.StatusGatewayTimeout, "deadline expired while queued"
		}
		return nil, 499, "client went away" // nginx-style cancelled-request code
	}
}

// effectiveIso normalizes an isosurface threshold for pool keying: only
// the isosurface mode consults it, and 0 means the classifier default —
// so requests that spell the default differently share one pool and one
// set of cache entries.
func effectiveIso(mode shearwarp.Mode, iso uint8) uint8 {
	if mode != shearwarp.ModeIsosurface {
		return 0
	}
	if iso == 0 {
		return classify.DefaultIsoThreshold
	}
	return iso
}

// renderPool returns (building on first use) the renderer pool for a
// key. Pool construction classifies and encodes through the LRU cache, so
// even a cold pool costs one classification, and a pool rebuilt after
// cache-warm use costs none. iso must already be the effective threshold
// (see effectiveIso).
func (s *Server) renderPool(ctx context.Context, rec *volumeRec, transfer shearwarp.Transfer, alg shearwarp.Algorithm, mode shearwarp.Mode, iso uint8) (*shearwarp.RendererPool, error) {
	k := poolKey{volume: rec.name, transfer: transfer, algorithm: alg, mode: mode, iso: iso}
	s.mu.Lock()
	pe, ok := s.pools[k]
	if !ok {
		pe = &poolEntry{}
		s.pools[k] = pe
	}
	s.mu.Unlock()
	pe.once.Do(func() {
		t0 := time.Now()
		defer func() {
			s.tel.logger.Info("renderer pool built",
				"req", telemetry.RequestID(ctx), "volume", rec.name,
				"transfer", transfer.String(), "alg", alg.String(),
				"mode", mode.String(),
				"size", s.cfg.PoolSize, "duration_ms", float64(time.Since(t0))/1e6,
				"err", pe.err)
		}()
		pv, err := shearwarp.PrepareVolumeMode(rec.data, rec.nx, rec.ny, rec.nz, transfer, mode, iso, s.cfg.Procs, s.cache)
		if err != nil {
			pe.err = err
			return
		}
		pv.SetFaultInjector(s.cfg.Faults)
		if mode != shearwarp.ModeComposite {
			// Non-composite preprocessing lands in the cache under a
			// mode-qualified fingerprint; join it to a mode-qualified
			// tenant name so per-tenant cache stats stay readable.
			s.mu.Lock()
			if _, known := s.volKeys[pv.Key()]; !known {
				s.volKeys[pv.Key()] = rec.name + "@" + mode.String()
			}
			s.mu.Unlock()
		}
		pe.pool, pe.err = shearwarp.NewRendererPool(s.cfg.PoolSize, func() (*shearwarp.Renderer, error) {
			return pv.NewRenderer(shearwarp.Config{
				Algorithm:         alg,
				Procs:             s.cfg.Procs,
				OpacityCorrection: s.cfg.OpacityCorrection,
				Faults:            s.cfg.Faults,
			})
		})
	})
	if pe.err != nil {
		// Mirror the cache's never-cache-failures rule at the pool layer:
		// evict the failed entry (if it is still the registered one) so
		// the next request for this key retries the build instead of
		// replaying a stale error forever. Transient failures heal; a
		// deterministic one fails again and is reported as non-retryable
		// through the error-class header.
		s.mu.Lock()
		if s.pools[k] == pe {
			delete(s.pools, k)
		}
		s.mu.Unlock()
	}
	return pe.pool, pe.err
}

// parseFloat parses a required float query parameter with a default.
// Non-finite values are rejected here, at the HTTP boundary, so they
// surface as 400s rather than as renderer validation errors.
func parseFloat(q url.Values, name string, def float64) (float64, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, v)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("bad %s %q: must be finite", name, v)
	}
	return f, nil
}

// handleRender is GET /render?volume=NAME&yaw=DEG&pitch=DEG
// [&alg=serial|old|new|raycast][&transfer=mri|ct]
// [&mode=composite|mip|iso][&iso=1-255][&format=ppm|png].
func (s *Server) handleRender(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		httpUnavailable(w, 5, "server shutting down")
		return
	}
	q := r.URL.Query()

	name := q.Get("volume")
	s.mu.Lock()
	rec := s.vols[name]
	s.mu.Unlock()
	if rec == nil {
		telemetry.WriteError(w, http.StatusNotFound, "unknown volume %q", name)
		return
	}

	yaw, err := parseFloat(q, "yaw", 30)
	if err != nil {
		telemetry.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	pitch, err := parseFloat(q, "pitch", 15)
	if err != nil {
		telemetry.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	alg := s.cfg.Algorithm
	if v := q.Get("alg"); v != "" {
		if alg, err = shearwarp.ParseAlgorithm(v); err != nil {
			telemetry.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	transfer := rec.transfer
	if v := q.Get("transfer"); v != "" {
		if transfer, err = shearwarp.ParseTransfer(v); err != nil {
			telemetry.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	mode := s.cfg.Mode
	if v := q.Get("mode"); v != "" {
		if mode, err = shearwarp.ParseMode(v); err != nil {
			telemetry.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	iso := s.cfg.IsoThreshold
	if v := q.Get("iso"); v != "" {
		n, perr := strconv.Atoi(v)
		if perr != nil || n < 0 || n > 255 {
			telemetry.WriteError(w, http.StatusBadRequest, "bad iso %q: threshold must be in 0-255", v)
			return
		}
		iso = uint8(n)
	}
	iso = effectiveIso(mode, iso)
	format := q.Get("format")
	if format == "" {
		format = "ppm"
	}
	if format != "ppm" && format != "png" {
		telemetry.WriteError(w, http.StatusBadRequest, "unknown format %q (ppm, png)", format)
		return
	}

	// Request identity: one ID shared by the structured log lines, the
	// context (so downstream layers can correlate), and the span trace.
	// Behind a gateway the propagated fleet trace ID is adopted in place
	// of the local sequence, so FrameSpans, exemplars and log lines on
	// every process a request touched key on the same ID; the attempt
	// ordinal distinguishes this backend's span sets when the gateway
	// retried or hedged the request here more than once.
	t0 := time.Now()
	var id uint64
	attempt := 0
	if v := r.Header.Get(TraceHeader); v != "" {
		if tid, perr := strconv.ParseUint(v, 10, 64); perr == nil && tid > 0 {
			id = tid
		}
	}
	if id == 0 {
		id = s.tel.reqSeq.Add(1)
	}
	if v := r.Header.Get(AttemptHeader); v != "" {
		if n, perr := strconv.Atoi(v); perr == nil && n >= 0 {
			attempt = n
		}
	}
	w.Header().Set(TraceHeader, strconv.FormatUint(id, 10))
	setExemplarID(w, id) // the latency observation carries the trace ID as an exemplar
	log := s.tel.logger.With("req", id, "volume", name, "alg", alg.String(), "mode", mode.String())
	if gw := r.Header.Get(GatewayRequestHeader); gw != "" {
		// Behind a gateway: thread its request ID through every log line
		// so a fleet-wide trace joins both sides.
		log = log.With("gwreq", gw)
	}
	if attempt > 0 {
		log = log.With("attempt", attempt)
	}
	log.Debug("render request", "yaw", yaw, "pitch", pitch, "format", format)
	label := fmt.Sprintf("render %s yaw=%g pitch=%g alg=%s", name, yaw, pitch, alg)
	if mode != shearwarp.ModeComposite {
		label += " mode=" + mode.String()
	}
	rt := s.tel.startTrace(id, attempt, label, t0)

	// The whole request — admission wait, renderer acquisition, render —
	// runs under the render deadline, capped by the client's propagated
	// budget (the gateway forwards its remaining per-request budget so a
	// backend never works past the point the client stopped waiting).
	budget := s.cfg.RenderTimeout
	if v := r.Header.Get(BudgetHeader); v != "" {
		if ms, perr := strconv.ParseInt(v, 10, 64); perr == nil && ms > 0 {
			if d := time.Duration(ms) * time.Millisecond; d < budget {
				budget = d
			}
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()
	ctx = telemetry.WithRequestID(ctx, id)

	admitAt := time.Now()
	release, status, msg := s.admit(ctx)
	admitDur := time.Since(admitAt)
	s.tel.hQueue.Observe(admitDur)
	rt.record("admission", admitAt, admitDur)
	if release == nil {
		log.Warn("request rejected", "status", status, "reason", msg,
			"wait_ms", float64(admitDur)/1e6)
		rt.finish(status, time.Now())
		if status == http.StatusServiceUnavailable {
			// Shed: hint re-arrival after the queue has had a chance to
			// drain rather than inviting an immediate repeat rejection.
			httpUnavailable(w, 1, "%s", msg)
		} else {
			telemetry.WriteError(w, status, "%s", msg)
		}
		return
	}
	s.inflight.Add(1)
	if s.renderHook != nil {
		s.renderHook()
	}

	acquireAt := time.Now()
	pool, err := s.renderPool(ctx, rec, transfer, alg, mode, iso)
	if err != nil {
		release()
		s.inflight.Done()
		log.Error("preparing volume failed", "err", err)
		rt.finish(http.StatusInternalServerError, time.Now())
		// A failed build is deterministic for this (volume, transfer,
		// mode): type the response so the gateway's retry policy does not
		// burn its budget re-rendering a volume that cannot build.
		w.Header().Set(ErrorClassHeader, ErrClassBuildFailure)
		telemetry.WriteError(w, http.StatusInternalServerError, "preparing volume: %v", err)
		return
	}
	ren, err := pool.Acquire(ctx)
	rt.record("acquire-renderer", acquireAt, time.Since(acquireAt))
	if err != nil {
		release()
		s.inflight.Done()
		var code int
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			code = http.StatusGatewayTimeout
			telemetry.WriteError(w, code, "deadline expired waiting for a renderer")
		case errors.Is(err, shearwarp.ErrPoolClosed):
			code = http.StatusServiceUnavailable
			httpUnavailable(w, 5, "server shutting down")
		default:
			code = 499
			telemetry.WriteError(w, code, "client went away")
		}
		log.Warn("renderer acquisition failed", "status", code, "err", err)
		rt.finish(code, time.Now())
		return
	}
	ren.SetSpanRecorder(rt.spans)

	// Render asynchronously so the handler can react to cancellation and
	// the watchdog while the frame runs. The goroutine — not the handler —
	// owns the renderer, the admission slot and the in-flight count. The
	// parallel renderers return their reusable output image, so the
	// goroutine also encodes it, into a pooled buffer, before it gives the
	// renderer back: released any earlier, the next request would render
	// into the image being encoded. All three come back the moment the
	// frame is encoded or RenderCtx fails: on cancellation that is within
	// one scanline of work per worker, so an abandoned request frees its
	// resources long before the handler's HTTP deadline machinery would. A
	// panicked frame additionally swaps the renderer for a freshly built
	// one before the slot comes back.
	rctx, rcancel := context.WithCancel(ctx)
	defer rcancel()
	type renderResult struct {
		body *bytes.Buffer // the encoded frame; the receiver returns it to bodyPool
		w, h int
		info shearwarp.FrameInfo
		err  error
	}
	done := make(chan renderResult, 1)
	go func() {
		var res renderResult
		var im *shearwarp.Image
		im, res.info, res.err = ren.RenderCtx(rctx, yaw, pitch)
		// Detach the span recorder before the renderer can serve another
		// request; RenderCtx has returned, so no worker records past here.
		ren.SetSpanRecorder(nil)
		var fe *render.FrameError
		if errors.As(res.err, &fe) {
			s.panics.Add(1)
			if derr := pool.Discard(ren); derr == nil {
				s.replaced.Add(1)
			}
		} else {
			if res.err == nil {
				s.frames.Add(1)
				if bd := ren.LastBreakdown(); bd != nil {
					fb := bd.Frame()
					s.cum.Add(fb)
					s.tel.observePhases(mode, fb)
				}
				encStart := time.Now()
				res.w, res.h = im.Width(), im.Height()
				res.body = bodyPool.Get().(*bytes.Buffer)
				res.body.Reset()
				if format == "png" {
					res.err = im.WritePNG(res.body)
				} else {
					res.err = im.WritePPM(res.body)
				}
				rt.record("encode", encStart, time.Since(encStart))
			}
			pool.Release(ren)
		}
		release()
		s.inflight.Done()
		rt.goroutineDone(time.Now())
		done <- res
	}()

	var wdC <-chan time.Time
	if s.cfg.WatchdogTimeout > 0 {
		wd := time.NewTimer(s.cfg.WatchdogTimeout)
		defer wd.Stop()
		wdC = wd.C
	}

	var res renderResult
	select {
	case res = <-done:
	case <-wdC:
		// The frame exceeded the watchdog budget: cancel it and answer
		// now. The render goroutine drains in the background and returns
		// the slot as soon as the workers observe the abort flag.
		s.stalls.Add(1)
		rcancel()
		log.Error("watchdog stall: frame cancelled",
			"budget_ms", float64(s.cfg.WatchdogTimeout)/1e6,
			"duration_ms", float64(time.Since(t0))/1e6)
		rt.handlerExits(http.StatusInternalServerError, time.Now())
		w.Header().Set(ErrorClassHeader, ErrClassWatchdogStall)
		telemetry.WriteError(w, http.StatusInternalServerError,
			"watchdog: frame exceeded %v and was cancelled", s.cfg.WatchdogTimeout)
		return
	case <-ctx.Done():
		s.cancels.Add(1)
		rcancel()
		code := 499
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			code = http.StatusGatewayTimeout
			telemetry.WriteError(w, code, "deadline expired while rendering")
		} else {
			telemetry.WriteError(w, code, "client went away")
		}
		log.Warn("request abandoned", "status", code,
			"duration_ms", float64(time.Since(t0))/1e6)
		rt.handlerExits(code, time.Now())
		return
	}

	if res.body != nil {
		defer bodyPool.Put(res.body)
		if res.err != nil {
			// The frame rendered and could not be encoded. Nothing has been
			// sent yet, so the client gets a status instead of a short body.
			log.Warn("encoding the frame failed", "format", format, "err", res.err)
			rt.handlerFinishes(http.StatusInternalServerError, time.Now())
			telemetry.WriteError(w, http.StatusInternalServerError, "encoding %s: %v", format, res.err)
			return
		}
	}
	if res.err != nil {
		var ve *shearwarp.ValidationError
		var fe *render.FrameError
		var code int
		switch {
		case errors.As(res.err, &ve):
			code = http.StatusBadRequest
			telemetry.WriteError(w, code, "%v", ve)
		case errors.As(res.err, &fe):
			code = http.StatusInternalServerError
			// The renderer has been replaced; a retry runs on a fresh one.
			w.Header().Set(ErrorClassHeader, ErrClassFramePanic)
			telemetry.WriteError(w, code, "frame failed: %v", fe)
		case errors.Is(res.err, context.DeadlineExceeded):
			s.cancels.Add(1)
			code = http.StatusGatewayTimeout
			telemetry.WriteError(w, code, "deadline expired while rendering")
		case errors.Is(res.err, context.Canceled):
			s.cancels.Add(1)
			code = 499
			telemetry.WriteError(w, code, "client went away")
		default:
			code = http.StatusInternalServerError
			telemetry.WriteError(w, code, "render failed: %v", res.err)
		}
		log.Error("render failed", "status", code, "err", res.err,
			"duration_ms", float64(time.Since(t0))/1e6)
		rt.handlerFinishes(code, time.Now())
		return
	}

	w.Header().Set("X-Shearwarp-Algorithm", alg.String())
	w.Header().Set("X-Shearwarp-Mode", mode.String())
	w.Header().Set("X-Shearwarp-Samples", strconv.FormatInt(res.info.Samples, 10))
	w.Header().Set("X-Shearwarp-Size", fmt.Sprintf("%dx%d", res.w, res.h))
	if format == "png" {
		w.Header().Set("Content-Type", "image/png")
	} else {
		w.Header().Set("Content-Type", "image/x-portable-pixmap")
	}
	w.Header().Set("Content-Length", strconv.Itoa(res.body.Len()))
	if _, err := w.Write(res.body.Bytes()); err != nil {
		// Too late to change the status; the client is usually gone.
		log.Warn("writing the response body failed", "bytes", res.body.Len(), "err", err)
	}
	now := time.Now()
	rt.handlerFinishes(http.StatusOK, now)
	log.Info("render complete", "samples", res.info.Samples,
		"duration_ms", float64(now.Sub(t0))/1e6)
}

// handleHealthz is GET /healthz: liveness plus a tiny status summary.
// volume_names lets clients (the load generator's auto-discovery) learn
// what the service can render without an out-of-band catalogue.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	names := make([]string, 0, len(s.vols))
	for n := range s.vols {
		names = append(names, n)
	}
	npools := len(s.pools)
	s.mu.Unlock()
	sort.Strings(names)
	status := "ok"
	code := http.StatusOK
	if s.closed.Load() {
		status = "shutting-down"
		code = http.StatusServiceUnavailable
	}
	telemetry.WriteJSON(w, code, map[string]any{
		"status":         status,
		"uptime_seconds": time.Since(s.start).Seconds(),
		"volumes":        len(names),
		"volume_names":   names,
		"pools":          npools,
		"rendering":      len(s.sem),
		"queued":         s.waiting.Load(),
		"frames":         s.frames.Load(),
	}, s.tel.logger)
}

// handleReadyz is GET /readyz: routability, distinct from /healthz
// liveness. It flips 503 the moment graceful shutdown begins
// (BeginDrain), before the listener closes, so fleet health checkers
// stop routing to a draining backend while it can still answer them.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() || s.closed.Load() {
		w.Header().Set("Retry-After", "5")
		telemetry.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"}, s.tel.logger)
		return
	}
	telemetry.WriteJSON(w, http.StatusOK, map[string]any{"ready": true}, s.tel.logger)
}

// MetricsSnapshot is the full /metrics document.
type MetricsSnapshot struct {
	UptimeSeconds float64                     `json:"uptime_seconds"`
	Build         BuildSnapshot               `json:"build"` // binary + runtime identity
	Frames        int64                       `json:"frames"`
	Rendering     int                         `json:"rendering"`
	Queued        int64                       `json:"queued"`
	Panics        int64                       `json:"frame_panics"`
	Canceled      int64                       `json:"frames_canceled"`
	Stalls        int64                       `json:"watchdog_stalls"`
	Replaced      int64                       `json:"renderers_replaced"`
	Endpoints     map[string]EndpointSnapshot `json:"endpoints"`
	Cache         volcache.Stats              `json:"cache"`
	CacheTenants  []TenantCacheStats          `json:"cache_tenants"` // per-volume cache traffic
	SLO           []slo.Status                `json:"slo"`           // objective evaluations, worst first
	Phases        perf.CumulativeSnapshot     `json:"phases"`
	// Histograms are the sparse cross-process forms of the latency
	// histograms the gateway's fleet aggregator merges: every backend
	// shares the same bucket boundaries, so fleet-level quantiles from
	// the merged buckets are exact (within the bucket scheme's error).
	Histograms map[string]telemetry.WireSnapshot `json:"histograms,omitempty"`
}

// TenantCacheStats is one volume's cache traffic, joined with its
// registered name (empty for volumes the cache saw but the server no
// longer knows, e.g. the overflow pseudo-tenant).
type TenantCacheStats struct {
	Name string `json:"name,omitempty"`
	volcache.TenantStats
}

func (s *Server) cacheTenants() []TenantCacheStats {
	tens := s.cache.Tenants()
	out := make([]TenantCacheStats, len(tens))
	s.mu.Lock()
	for i, ts := range tens {
		out[i] = TenantCacheStats{Name: s.volKeys[ts.Volume], TenantStats: ts}
	}
	s.mu.Unlock()
	return out
}

func (s *Server) metricsSnapshot() MetricsSnapshot {
	build := buildSnapshot()
	build.Procs = s.cfg.Procs
	return MetricsSnapshot{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Build:         build,
		Frames:        s.frames.Load(),
		Rendering:     len(s.sem),
		Queued:        s.waiting.Load(),
		Panics:        s.panics.Load(),
		Canceled:      s.cancels.Load(),
		Stalls:        s.stalls.Load(),
		Replaced:      s.replaced.Load(),
		Endpoints: map[string]EndpointSnapshot{
			"/render":  s.mRender.snapshot(),
			"/healthz": s.mHealth.snapshot(),
			"/metrics": s.mMetrics.snapshot(),
		},
		Cache:        s.cache.Snapshot(),
		CacheTenants: s.cacheTenants(),
		SLO:          s.slo.Statuses(),
		Phases:       s.cum.Snapshot(),
		Histograms: map[string]telemetry.WireSnapshot{
			"render_seconds":         s.mRender.latency.Snapshot().Wire(),
			"admission_wait_seconds": s.tel.hQueue.Snapshot().Wire(),
			"cache_build_seconds":    s.tel.hBuild.Snapshot().Wire(),
		},
	}
}
