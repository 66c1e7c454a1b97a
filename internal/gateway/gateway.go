// Package gateway implements shearwarpgw, the resilient front door over
// a fleet of shearwarpd backends. One gateway owns N backend base URLs
// and serves /render by proxying to the fleet; everything else is about
// keeping that one route correct and fast while individual backends
// die, hang, drain, or brown out:
//
//   - fingerprint-affine routing: requests are placed on a consistent
//     hash ring keyed by (volume, transfer, mode, iso), so one volume's
//     traffic concentrates on one backend and its preprocessing cache
//     stays hot; the bounded-load variant spills a hot key to the next
//     ring node instead of melting its favourite shard;
//   - active health checking: each backend's /readyz is polled on an
//     interval; FailThreshold consecutive failures stop routing to it,
//     RiseThreshold consecutive successes re-admit it — so a draining
//     backend (which flips /readyz at the start of graceful shutdown)
//     is drained out of rotation before its listener closes;
//   - per-backend circuit breakers: consecutive request failures open
//     the circuit and eject the backend; after a cooldown, a half-open
//     probe (exactly one in-flight request) decides re-admission;
//   - retries: capped exponential backoff with full jitter, on a
//     different backend when one is available, only for failures that
//     retrying can fix (connect errors, 503 shed, mid-stream death,
//     typed-transient 500s) — deterministic failures (volume build
//     errors, client errors) pass through on the first attempt;
//   - hedging: when an attempt outlives the fleet's learned latency
//     quantile, a second attempt fires on another backend;
//     first success wins and the loser is cancelled;
//   - deadline propagation: the client's budget bounds the whole
//     policy, and each attempt forwards its remaining budget so no
//     backend works past the point the client stopped waiting.
//
// Output contract: a 2xx response proxied through the gateway is
// byte-identical to a direct render by any single backend (which is in
// turn byte-identical to the library) — the chaos soak asserts this
// while backends are killed and restarted mid-traffic.
package gateway

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shearwarp/internal/faultinject"
	"shearwarp/internal/slo"
	"shearwarp/internal/telemetry"
)

// Config tunes the gateway. Backends is required; the zero value of
// everything else gets the shipped defaults from normalize, and
// RegisterFlags binds shearwarpgw's flags to the same ones.
type Config struct {
	Backends []string // backend base URLs, e.g. "http://10.0.0.1:8080"

	// Replicas is the number of virtual ring nodes per backend
	// (default 64); more replicas smooth key placement.
	Replicas int
	// LoadFactor is the bounded-load factor c: a backend is skipped
	// when admitting the request would push its in-flight count past
	// ceil(c * (total+1) / backends). Default 1.25.
	LoadFactor float64

	HealthInterval time.Duration // /readyz poll period (default 1s)
	HealthTimeout  time.Duration // per-probe timeout (default 1s)
	FailThreshold  int           // consecutive probe failures -> down (default 2)
	RiseThreshold  int           // consecutive probe successes -> up (default 2)

	// MaxAttempts bounds the total attempts per request, first try,
	// retries and hedges together (default 3).
	MaxAttempts    int
	RetryBaseDelay time.Duration // backoff base before the 2nd attempt (default 10ms)
	RetryMaxDelay  time.Duration // backoff cap (default 250ms)

	// HedgeQuantile arms the tail-latency hedge: when an attempt
	// outlives this quantile of the gateway's own successful-attempt
	// latency histogram, a second attempt fires on another backend.
	// Default 0.95; negative disables hedging.
	HedgeQuantile float64
	HedgeMin      time.Duration // learned delay floor (default 10ms)
	HedgeMax      time.Duration // learned delay ceiling, also used until enough samples (default 2s)

	BreakerFailures int           // consecutive failures that open a breaker (default 5)
	BreakerCooldown time.Duration // open -> half-open (default 5s)

	// DefaultBudget is the per-request deadline when the client sends
	// neither a budget= query parameter nor a budget header (default 30s).
	DefaultBudget time.Duration
	// MaxBodyBytes caps the buffered backend response (default 64 MiB).
	// Buffering is what makes mid-stream backend death retryable: no
	// client byte is written until a whole frame has arrived.
	MaxBodyBytes int64

	// Transport is the base RoundTripper to the backends — chaos tests
	// wrap it with faultinject.NewTransport. Nil uses a dedicated
	// transport with per-backend keep-alive pools.
	Transport http.RoundTripper
	// Logger receives structured logs (attempt outcomes, breaker and
	// health transitions), each line carrying the fleet trace ID that
	// is also forwarded to backends. Nil discards.
	Logger *slog.Logger
	// Seed makes retry jitter deterministic in tests (default 1).
	Seed int64

	// TraceRing sizes the gateway's span tracer's recent-trace ring
	// (/debug/spans, /debug/trace): 0 keeps the default of 64 retained
	// traces, negative disables gateway span tracing entirely — trace
	// IDs still mint and propagate, but no attempt spans are recorded
	// and the stitcher answers 404.
	TraceRing int
	// FleetInterval is the backend /metrics scrape period feeding the
	// fleet aggregation and the fleet SLO engine (default 10s;
	// negative disables both).
	FleetInterval time.Duration
	// SLO lists the fleet-level objectives the gateway evaluates over
	// the merged backend state. Nil runs slo.DefaultSpec and an empty
	// list runs no engine; objectives naming endpoints other than
	// /render are skipped with a log.
	SLO []slo.Objective
}

// defaults is the shipped configuration, stated once: normalize fills
// zero fields from it and RegisterFlags shows it as the flag defaults.
var defaults = Config{
	Replicas:        64,
	LoadFactor:      1.25,
	HealthInterval:  time.Second,
	HealthTimeout:   time.Second,
	FailThreshold:   2,
	RiseThreshold:   2,
	MaxAttempts:     3,
	RetryBaseDelay:  10 * time.Millisecond,
	RetryMaxDelay:   250 * time.Millisecond,
	HedgeQuantile:   0.95,
	HedgeMin:        10 * time.Millisecond,
	HedgeMax:        2 * time.Second,
	BreakerFailures: 5,
	BreakerCooldown: 5 * time.Second,
	DefaultBudget:   30 * time.Second,
	MaxBodyBytes:    64 << 20,
	Seed:            1,
	FleetInterval:   10 * time.Second,
}

func (c *Config) normalize() error {
	if len(c.Backends) == 0 {
		return fmt.Errorf("gateway: at least one backend required")
	}
	for i, b := range c.Backends {
		b = strings.TrimRight(b, "/")
		if _, err := url.Parse(b); err != nil {
			return fmt.Errorf("gateway: bad backend url %q: %w", b, err)
		}
		c.Backends[i] = b
	}
	if c.LoadFactor <= 1 {
		c.LoadFactor = defaults.LoadFactor
	}
	if c.HedgeQuantile == 0 {
		c.HedgeQuantile = defaults.HedgeQuantile
	}
	if c.FleetInterval == 0 {
		c.FleetInterval = defaults.FleetInterval
	}
	orDefault(&c.Replicas, defaults.Replicas)
	orDefault(&c.HealthInterval, defaults.HealthInterval)
	orDefault(&c.HealthTimeout, defaults.HealthTimeout)
	orDefault(&c.FailThreshold, defaults.FailThreshold)
	orDefault(&c.RiseThreshold, defaults.RiseThreshold)
	orDefault(&c.MaxAttempts, defaults.MaxAttempts)
	orDefault(&c.RetryBaseDelay, defaults.RetryBaseDelay)
	orDefault(&c.RetryMaxDelay, defaults.RetryMaxDelay)
	orDefault(&c.HedgeMin, defaults.HedgeMin)
	orDefault(&c.HedgeMax, defaults.HedgeMax)
	orDefault(&c.BreakerFailures, defaults.BreakerFailures)
	orDefault(&c.BreakerCooldown, defaults.BreakerCooldown)
	orDefault(&c.DefaultBudget, defaults.DefaultBudget)
	orDefault(&c.MaxBodyBytes, defaults.MaxBodyBytes)
	if c.Seed == 0 {
		c.Seed = defaults.Seed
	}
	return nil
}

// orDefault replaces a non-positive *v with d.
func orDefault[T int | int64 | time.Duration](v *T, d T) {
	if *v <= 0 {
		*v = d
	}
}

// RegisterFlags declares shearwarpgw's gateway flags on fs, each bound
// straight into c with its default read from defaults.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.Func("backends", "comma-separated backend base URLs (required)", func(s string) error {
		c.Backends = nil
		for _, b := range strings.Split(s, ",") {
			if b = strings.TrimSpace(b); b != "" {
				c.Backends = append(c.Backends, b)
			}
		}
		return nil
	})
	fs.IntVar(&c.Replicas, "replicas", defaults.Replicas, "virtual ring nodes per backend")
	fs.Float64Var(&c.LoadFactor, "load-factor", defaults.LoadFactor, "bounded-load factor c: skip a backend past ceil(c*(total+1)/n) in-flight")
	fs.DurationVar(&c.HealthInterval, "health-interval", defaults.HealthInterval, "backend /readyz poll period")
	fs.DurationVar(&c.HealthTimeout, "health-timeout", defaults.HealthTimeout, "per-probe timeout")
	fs.IntVar(&c.FailThreshold, "fail-threshold", defaults.FailThreshold, "consecutive probe failures before a backend is unroutable")
	fs.IntVar(&c.RiseThreshold, "rise-threshold", defaults.RiseThreshold, "consecutive probe successes before a backend is routable again")
	fs.IntVar(&c.MaxAttempts, "max-attempts", defaults.MaxAttempts, "total attempts per request (first try + retries + hedges)")
	fs.DurationVar(&c.RetryBaseDelay, "retry-base", defaults.RetryBaseDelay, "backoff base before the second attempt")
	fs.DurationVar(&c.RetryMaxDelay, "retry-max", defaults.RetryMaxDelay, "backoff cap")
	fs.Float64Var(&c.HedgeQuantile, "hedge-quantile", defaults.HedgeQuantile, "attempt-latency quantile that arms a hedged attempt (<0 disables hedging)")
	fs.DurationVar(&c.HedgeMin, "hedge-min", defaults.HedgeMin, "learned hedge delay floor")
	fs.DurationVar(&c.HedgeMax, "hedge-max", defaults.HedgeMax, "learned hedge delay ceiling (used until warmed up)")
	fs.IntVar(&c.BreakerFailures, "breaker-failures", defaults.BreakerFailures, "consecutive failures that open a backend's circuit breaker")
	fs.DurationVar(&c.BreakerCooldown, "breaker-cooldown", defaults.BreakerCooldown, "open circuit cooldown before the half-open probe")
	fs.DurationVar(&c.DefaultBudget, "budget", defaults.DefaultBudget, "default per-request deadline when the client sends none")
	fs.IntVar(&c.TraceRing, "trace-ring", 0, "retained gateway traces for /debug/spans and /debug/trace (0 = default ring, <0 disables retention)")
	fs.DurationVar(&c.FleetInterval, "fleet-interval", defaults.FleetInterval, "backend /metrics scrape+merge period (<0 disables fleet aggregation)")
	slo.FlagVar(fs, &c.SLO, "fleet-level objectives over merged scrapes, e.g. 'latency@/render:le=250ms:target=99%' (empty = engine off)")
	faultinject.FlagVar(fs, "inject deterministic transport faults toward the backends, e.g. 'kill@transport:n=7;status@transport:s=503:n=13:c=3' (see internal/faultinject)",
		func(in *faultinject.Injector) { c.Transport = faultinject.NewTransport(in, nil) })
	telemetry.LogFlags(fs, &c.Logger)
}

// backend is one fleet member's live state.
type backend struct {
	url string
	idx int

	inflight atomic.Int64 // gateway attempts running against this backend
	healthy  atomic.Bool  // health checker's verdict
	breaker  *breaker

	// Probe streaks. The health loop and CheckNow callers (tests,
	// /healthz?check=1) can probe one backend at the same time.
	checkMu              sync.Mutex
	consecFail, consecOK int

	// per-backend counters for /metrics
	requests  atomic.Int64 // attempts started
	failures  atomic.Int64 // attempts that failed (retryable classes)
	retries   atomic.Int64 // attempts that were retries landing here
	hedges    atomic.Int64 // attempts that were hedges landing here
	hedgeWins atomic.Int64 // hedged attempts that won their request
	checksUp  atomic.Int64 // health transitions to up
	checksDn  atomic.Int64 // health transitions to down
}

// Gateway is the resilient render front door. Create with New, serve
// Handler, Close to drain. All methods are safe for concurrent use.
type Gateway struct {
	cfg      Config
	backends []*backend
	ring     *ring
	client   *http.Client
	// debugClient is the fault-free control-plane client the stitcher
	// and fleet scraper use: chaos tests wrap Config.Transport with
	// fault injectors, and a /debug/spans fetch killed by a leftover
	// fault rule would turn an observability read into a flake.
	debugClient *http.Client
	log         *slog.Logger
	mux         *http.ServeMux
	start       time.Time

	reqSeq atomic.Uint64
	// traceBase offsets fleet trace IDs so they cannot collide with a
	// backend's locally-minted IDs (small integers) and change across
	// gateway restarts; masked below 2^52 so IDs survive JSON number
	// round-trips (float64 is exact to 2^53).
	traceBase uint64

	tracer *telemetry.Tracer // gateway-side span tracing (nil = disabled)

	// Fleet aggregation state and the fleet-level SLO engine.
	fleet    fleetState
	fleetSLO *slo.Engine

	rngMu sync.Mutex
	rng   *rand.Rand // retry jitter

	hRender  *telemetry.Histogram // end-to-end /render latency (success)
	hAttempt *telemetry.Histogram // per-attempt latency (success) — feeds the hedge delay
	hedge    hedgeCache

	// bodyHook, when set (tests only, before traffic), sees every pooled
	// body buffer as it is taken (+1) and, still intact, as it is about to
	// go back to the pool (-1).
	bodyHook func(delta int, buf []byte)

	requests   atomic.Int64 // /render requests completed
	successes  atomic.Int64 // /render 2xx
	retried    atomic.Int64 // retry attempts launched
	hedged     atomic.Int64 // hedge attempts launched
	hedgeWins  atomic.Int64 // requests won by the hedged attempt
	noBackend  atomic.Int64 // requests rejected with no eligible backend
	exhausted  atomic.Int64 // requests that burned every attempt
	draining   atomic.Bool
	inflight   sync.WaitGroup // in-flight proxied requests AND attempts
	healthStop chan struct{}
	healthWG   sync.WaitGroup
}

// New builds a gateway over the configured backends and starts its
// health-check loop. Backends start healthy (optimistic) and the first
// check round corrects that within HealthInterval.
func New(cfg Config) (*Gateway, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	log := cfg.Logger
	if log == nil {
		log = telemetry.DiscardLogger()
	}
	tr := cfg.Transport
	if tr == nil {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = 32
		tr = t
	}
	dbg := http.DefaultTransport.(*http.Transport).Clone()
	g := &Gateway{
		cfg:         cfg,
		ring:        newRing(cfg.Backends, cfg.Replicas),
		client:      &http.Client{Transport: tr},
		debugClient: &http.Client{Transport: dbg, Timeout: 5 * time.Second},
		log:         log,
		start:       time.Now(),
		traceBase:   (uint64(time.Now().Unix()) << 21) & (1<<52 - 1),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		hRender:     telemetry.NewHistogram(),
		hAttempt:    telemetry.NewHistogram(),
		healthStop:  make(chan struct{}),
	}
	g.hedge.delay.Store(int64(cfg.HedgeMax))
	if cfg.TraceRing >= 0 {
		g.tracer = telemetry.NewTracer(cfg.TraceRing, 0, 0)
	}
	if cfg.FleetInterval >= 0 {
		g.fleetSLO = slo.Build(cfg.SLO, g.fleetSLOSource, log)
	}
	for i, u := range cfg.Backends {
		b := &backend{url: u, idx: i, breaker: newBreaker(cfg.BreakerFailures, cfg.BreakerCooldown)}
		b.healthy.Store(true)
		g.backends = append(g.backends, b)
	}
	g.mux = http.NewServeMux()
	g.mux.HandleFunc("/render", g.handleRender)
	g.mux.HandleFunc("/healthz", g.handleHealthz)
	g.mux.HandleFunc("/readyz", g.handleReadyz)
	g.mux.HandleFunc("/metrics", g.handleMetrics)
	g.mux.HandleFunc("/debug/dash", dashHandler)
	g.mux.HandleFunc("/debug/spans", telemetry.SpansHandler(g.tracer, log))
	g.mux.HandleFunc("/debug/trace", g.handleTrace)
	g.mux.HandleFunc("/debug/slo", slo.Handler(g.fleetSLO, log))
	g.healthWG.Add(1)
	go g.healthLoop()
	if g.cfg.FleetInterval > 0 {
		g.healthWG.Add(1)
		go g.fleetLoop()
	}
	return g, nil
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// BeginDrain flips the gateway's own /readyz unready while /render
// keeps serving — the same two-phase drain contract as the backends.
func (g *Gateway) BeginDrain() { g.draining.Store(true) }

// Close drains: flips unready, stops the health loop, waits for
// in-flight proxied requests and their attempts, and releases the
// backend keep-alive pools.
func (g *Gateway) Close() {
	g.BeginDrain()
	select {
	case <-g.healthStop:
	default:
		close(g.healthStop)
	}
	g.healthWG.Wait()
	g.inflight.Wait()
	g.client.CloseIdleConnections()
	g.debugClient.CloseIdleConnections()
}

// healthLoop polls every backend's /readyz on the configured interval.
func (g *Gateway) healthLoop() {
	defer g.healthWG.Done()
	ticker := time.NewTicker(g.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-g.healthStop:
			return
		case <-ticker.C:
			g.CheckNow()
		}
	}
}

// CheckNow runs one synchronous health-check round over all backends —
// the health loop's body, exported so tests (and operators via
// /healthz?check=1) can force a round instead of sleeping through the
// interval.
func (g *Gateway) CheckNow() {
	var wg sync.WaitGroup
	for _, b := range g.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			g.checkBackend(b)
		}(b)
	}
	wg.Wait()
}

// checkBackend probes one backend's /readyz and applies the
// fail/rise-threshold hysteresis.
func (g *Gateway) checkBackend(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.HealthTimeout)
	defer cancel()
	ok := false
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/readyz", nil)
	if err == nil {
		resp, rerr := g.client.Do(req)
		if rerr == nil {
			ok = resp.StatusCode >= 200 && resp.StatusCode < 300
			resp.Body.Close()
		}
	}
	b.checkMu.Lock()
	defer b.checkMu.Unlock()
	if ok {
		b.consecFail = 0
		b.consecOK++
		if !b.healthy.Load() && b.consecOK >= g.cfg.RiseThreshold {
			b.healthy.Store(true)
			b.checksUp.Add(1)
			g.log.Info("backend up", "backend", b.url)
		}
	} else {
		b.consecOK = 0
		b.consecFail++
		if b.healthy.Load() && b.consecFail >= g.cfg.FailThreshold {
			b.healthy.Store(false)
			b.checksDn.Add(1)
			g.log.Warn("backend down", "backend", b.url, "consecutive_failures", b.consecFail)
		}
	}
}

// handleHealthz is the gateway's own liveness: a summary of the fleet.
// ?check=1 forces a synchronous health round first.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("check") == "1" {
		g.CheckNow()
	}
	type bh struct {
		URL      string `json:"url"`
		Healthy  bool   `json:"healthy"`
		Breaker  string `json:"breaker"`
		InFlight int64  `json:"in_flight"`
	}
	doc := struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		Backends      []bh    `json:"backends"`
	}{Status: "ok", UptimeSeconds: time.Since(g.start).Seconds()}
	if g.draining.Load() {
		doc.Status = "draining"
	}
	for _, b := range g.backends {
		doc.Backends = append(doc.Backends, bh{
			URL: b.url, Healthy: b.healthy.Load(),
			Breaker: b.breaker.State().String(), InFlight: b.inflight.Load(),
		})
	}
	telemetry.WriteJSON(w, http.StatusOK, doc, g.log)
}

// handleReadyz is the gateway's routability: ready while not draining
// and at least one backend is eligible for traffic.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if g.draining.Load() {
		w.Header().Set("Retry-After", "5")
		telemetry.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"}, g.log)
		return
	}
	for _, b := range g.backends {
		if b.healthy.Load() && b.breaker.State() != BreakerOpen {
			telemetry.WriteJSON(w, http.StatusOK, map[string]any{"ready": true}, g.log)
			return
		}
	}
	w.Header().Set("Retry-After", "1")
	telemetry.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "no eligible backend"}, g.log)
}

// hedgeCache holds the learned hedge delay. Every request arms its hedge
// timer from it, so reading it is one atomic load; the quantile behind it
// is recomputed by refreshHedgeDelay, after a response has been written.
type hedgeCache struct {
	delay atomic.Int64 // ns; HedgeMax until hedgeMinSamples attempts are in

	mu   sync.Mutex // serializes refreshes
	seen int64      // hAttempt.Count() at the last refresh
	at   time.Time  // when that was
}

const (
	hedgeMinSamples   = 32                     // fewer observed attempts than this: HedgeMax
	hedgeRefreshEvery = 32                     // new observations that force a refresh
	hedgeRefreshAfter = 100 * time.Millisecond // age at which any new observation does
)

// hedgeDelay is the learned tail-latency threshold that arms a hedged
// attempt: the configured quantile of successful attempt latencies,
// clamped to [HedgeMin, HedgeMax], as of the last refresh. Until 32
// attempts have been observed the ceiling is used, so a cold gateway never
// hedges aggressively on noise.
func (g *Gateway) hedgeDelay() time.Duration {
	return time.Duration(g.hedge.delay.Load())
}

// refreshHedgeDelay recomputes the cached hedge delay when it has gone
// stale: hedgeRefreshEvery attempts observed since the last refresh, or
// any at all and hedgeRefreshAfter elapsed. handleRender calls it once the
// client has its response, so the histogram walk is on no request's path.
func (g *Gateway) refreshHedgeDelay(now time.Time) {
	h := &g.hedge
	if !h.mu.TryLock() {
		return // someone else is refreshing
	}
	defer h.mu.Unlock()
	n := g.hAttempt.Count()
	if n == h.seen || (n-h.seen < hedgeRefreshEvery && now.Sub(h.at) < hedgeRefreshAfter) {
		return
	}
	h.seen, h.at = n, now
	d := g.cfg.HedgeMax
	if n >= hedgeMinSamples {
		d = min(max(time.Duration(g.hAttempt.Quantile(g.cfg.HedgeQuantile)), g.cfg.HedgeMin), g.cfg.HedgeMax)
	}
	h.delay.Store(int64(d))
}

// jitter returns a full-jitter backoff delay for the nth retry
// (0-based): uniform in [0, min(RetryMaxDelay, RetryBaseDelay<<n)).
func (g *Gateway) jitter(n int) time.Duration {
	max := g.cfg.RetryBaseDelay << uint(n)
	if max > g.cfg.RetryMaxDelay || max <= 0 {
		max = g.cfg.RetryMaxDelay
	}
	g.rngMu.Lock()
	d := time.Duration(g.rng.Int63n(int64(max) + 1))
	g.rngMu.Unlock()
	return d
}
