package gateway

import (
	"net/http"
	"time"

	"shearwarp/internal/telemetry"
)

// backendMetrics is one backend's row in the JSON snapshot.
type backendMetrics struct {
	URL          string `json:"url"`
	Healthy      bool   `json:"healthy"`
	Breaker      string `json:"breaker"`
	BreakerOpens int64  `json:"breaker_opens"`
	InFlight     int64  `json:"in_flight"`
	Requests     int64  `json:"requests"`
	Failures     int64  `json:"failures"`
	Retries      int64  `json:"retries"`
	Hedges       int64  `json:"hedges"`
	HedgeWins    int64  `json:"hedge_wins"`
	ChecksUp     int64  `json:"health_transitions_up"`
	ChecksDown   int64  `json:"health_transitions_down"`
}

// gatewayMetrics is the /metrics JSON document.
type gatewayMetrics struct {
	UptimeSeconds float64                   `json:"uptime_seconds"`
	Requests      int64                     `json:"requests"`
	Successes     int64                     `json:"successes"`
	Retries       int64                     `json:"retries"`
	Hedges        int64                     `json:"hedges"`
	HedgeWins     int64                     `json:"hedge_wins"`
	NoBackend     int64                     `json:"no_backend"`
	Exhausted     int64                     `json:"attempts_exhausted"`
	HedgeDelayMS  float64                   `json:"hedge_delay_ms"`
	Render        telemetry.QuantileSummary `json:"render"`
	Attempt       telemetry.QuantileSummary `json:"attempt"`
	Backends      []backendMetrics          `json:"backends"`
	Fleet         fleetMetrics              `json:"fleet"`
	RecentTraces  []recentTraceRef          `json:"recent_traces,omitempty"`
}

func (g *Gateway) metrics() gatewayMetrics {
	m := gatewayMetrics{
		UptimeSeconds: time.Since(g.start).Seconds(),
		Requests:      g.requests.Load(),
		Successes:     g.successes.Load(),
		Retries:       g.retried.Load(),
		Hedges:        g.hedged.Load(),
		HedgeWins:     g.hedgeWins.Load(),
		NoBackend:     g.noBackend.Load(),
		Exhausted:     g.exhausted.Load(),
		HedgeDelayMS:  float64(g.hedgeDelay()) / 1e6,
		Render:        g.hRender.Snapshot().Summary(),
		Attempt:       g.hAttempt.Snapshot().Summary(),
	}
	for _, b := range g.backends {
		m.Backends = append(m.Backends, backendMetrics{
			URL:          b.url,
			Healthy:      b.healthy.Load(),
			Breaker:      b.breaker.State().String(),
			BreakerOpens: b.breaker.opens.Load(),
			InFlight:     b.inflight.Load(),
			Requests:     b.requests.Load(),
			Failures:     b.failures.Load(),
			Retries:      b.retries.Load(),
			Hedges:       b.hedges.Load(),
			HedgeWins:    b.hedgeWins.Load(),
			ChecksUp:     b.checksUp.Load(),
			ChecksDown:   b.checksDn.Load(),
		})
	}
	m.Fleet = g.fleetSnapshot()
	m.RecentTraces = g.recentTraces(10)
	return m
}

// handleMetrics serves the gateway's counters: JSON by default, the
// Prometheus text exposition for a scraper (the backends' negotiation).
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	telemetry.ServeMetrics(w, r, g.log, func() any { return g.metrics() }, g.writeProm)
}

// backendSeries are the per-backend Prometheus families, one series per
// backend each, in exposition order.
var backendSeries = []struct {
	name, help string
	counter    bool
	value      func(*backend) float64
}{
	{"shearwarpgw_backend_healthy", "Health checker verdict (1 = routable).", false,
		func(b *backend) float64 { return b2f(b.healthy.Load()) }},
	{"shearwarpgw_backend_breaker_state", "Circuit breaker state: 0 closed, 1 open, 2 half-open.", false,
		func(b *backend) float64 { return float64(b.breaker.State()) }},
	{"shearwarpgw_backend_breaker_opens_total", "Circuit breaker open transitions (ejections).", true,
		func(b *backend) float64 { return float64(b.breaker.opens.Load()) }},
	{"shearwarpgw_backend_inflight", "Attempts currently running against the backend.", false,
		func(b *backend) float64 { return float64(b.inflight.Load()) }},
	{"shearwarpgw_backend_requests_total", "Attempts started against the backend.", true,
		func(b *backend) float64 { return float64(b.requests.Load()) }},
	{"shearwarpgw_backend_failures_total", "Attempts that failed against the backend.", true,
		func(b *backend) float64 { return float64(b.failures.Load()) }},
	{"shearwarpgw_backend_retries_total", "Retry attempts that landed on the backend.", true,
		func(b *backend) float64 { return float64(b.retries.Load()) }},
	{"shearwarpgw_backend_hedges_total", "Hedged attempts that landed on the backend.", true,
		func(b *backend) float64 { return float64(b.hedges.Load()) }},
	{"shearwarpgw_backend_hedge_wins_total", "Hedged attempts on the backend that won their request.", true,
		func(b *backend) float64 { return float64(b.hedgeWins.Load()) }},
}

// writeProm emits the shearwarpgw_* series.
func (g *Gateway) writeProm(pw *telemetry.PromWriter) {
	pw.Counter("shearwarpgw_requests_total", "Proxied /render requests completed.", float64(g.requests.Load()))
	pw.Counter("shearwarpgw_success_total", "Proxied /render requests answered 2xx.", float64(g.successes.Load()))
	pw.Counter("shearwarpgw_retries_total", "Retry attempts launched.", float64(g.retried.Load()))
	pw.Counter("shearwarpgw_hedges_total", "Hedged attempts launched.", float64(g.hedged.Load()))
	pw.Counter("shearwarpgw_hedge_wins_total", "Requests won by the hedged attempt.", float64(g.hedgeWins.Load()))
	pw.Counter("shearwarpgw_no_backend_total", "Requests rejected with no eligible backend.", float64(g.noBackend.Load()))
	pw.Counter("shearwarpgw_attempts_exhausted_total", "Requests that failed after every allowed attempt.", float64(g.exhausted.Load()))
	pw.Gauge("shearwarpgw_hedge_delay_seconds", "Current learned tail-latency hedge threshold.", float64(g.hedgeDelay())/1e9)
	pw.Gauge("shearwarpgw_draining", "1 while the gateway is draining.", b2f(g.draining.Load()))

	for _, m := range backendSeries {
		emit := pw.Gauge
		if m.counter {
			emit = pw.Counter
		}
		for _, b := range g.backends {
			emit(m.name, m.help, m.value(b), "backend", b.url)
		}
	}

	pw.Histogram("shearwarpgw_render_seconds", "End-to-end proxied render latency (2xx only).", g.hRender.Snapshot())
	pw.Histogram("shearwarpgw_attempt_seconds", "Per-attempt backend latency (successful attempts).", g.hAttempt.Snapshot())

	// Fleet aggregation: the merged cross-backend view from the scrape
	// loop. The histogram is the exact union of the backends' render
	// observations (shared bucket boundaries), not a quantile average.
	fm := g.fleetSnapshot()
	if fm.ScrapedAgoSeconds >= 0 {
		pw.Gauge("shearwarpgw_fleet_scraped_backends", "Backends whose last fleet scrape succeeded.", float64(fm.Scraped))
		pw.Gauge("shearwarpgw_fleet_scrape_age_seconds", "Age of the last fleet scrape round.", fm.ScrapedAgoSeconds)
		pw.Counter("shearwarpgw_fleet_frames_total", "Frames rendered across the fleet (summed at last scrape).", float64(fm.Frames))
		pw.Gauge("shearwarpgw_fleet_cache_hit_rate", "Fleet-wide preprocessing cache hit rate.", fm.CacheHitRate)
		pw.Histogram("shearwarpgw_fleet_render_seconds", "Merged fleet render latency (exact cross-backend union).",
			g.mergedHistogramLocked("render_seconds"))
	}
}

// mergedHistogramLocked snapshots the fleet state and merges one named
// histogram — the accessor for readers outside the scrape loop (the
// exposition, the fleet SLO source).
func (g *Gateway) mergedHistogramLocked(name string) *telemetry.HistogramSnapshot {
	g.fleet.mu.Lock()
	states := append([]fleetBackendState(nil), g.fleet.backends...)
	g.fleet.mu.Unlock()
	return g.mergedHistogram(states, name)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
