package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"shearwarp/internal/server"
	"shearwarp/internal/slo"
	"shearwarp/internal/telemetry"
)

// Fleet metrics aggregation: the gateway periodically scrapes every
// backend's /metrics JSON and merges the wire-form histogram snapshots
// into fleet-level state. Merging is exact — every process shares the
// telemetry package's log-linear bucket boundaries — so the fleet's
// p99 is the p99 of the union of observations, not an average of
// averages. The merged counters also feed a fleet-level internal/slo
// engine, extending each backend's burn-rate alerting to "is the fleet
// as a whole meeting its objectives while individual members misbehave".

// fleetBackendState is one backend's last scrape.
type fleetBackendState struct {
	url  string
	err  string
	at   time.Time
	snap server.MetricsSnapshot
}

// fleetState is the scrape loop's shared output.
type fleetState struct {
	mu       sync.Mutex
	at       time.Time
	backends []fleetBackendState
}

// ScrapeFleetNow runs one synchronous scrape round over all backends —
// the fleet loop's body, exported so tests and CI can force a round
// instead of sleeping through FleetInterval.
func (g *Gateway) ScrapeFleetNow() {
	now := time.Now()
	states := make([]fleetBackendState, len(g.backends))
	var wg sync.WaitGroup
	for i, b := range g.backends {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			states[i] = g.scrapeBackend(url, now)
		}(i, b.url)
	}
	wg.Wait()
	g.fleet.mu.Lock()
	g.fleet.at = now
	g.fleet.backends = states
	g.fleet.mu.Unlock()
	if g.fleetSLO != nil {
		g.fleetSLO.Tick()
	}
}

// scrapeBackend fetches one backend's /metrics JSON document.
func (g *Gateway) scrapeBackend(url string, now time.Time) fleetBackendState {
	st := fleetBackendState{url: url, at: now}
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.HealthTimeout*2)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		st.err = err.Error()
		return st
	}
	resp, err := g.debugClient.Do(req)
	if err != nil {
		st.err = err.Error()
		return st
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		st.err = fmt.Sprintf("scrape answered %d", resp.StatusCode)
		return st
	}
	if err := json.NewDecoder(resp.Body).Decode(&st.snap); err != nil {
		st.err = "decoding metrics: " + err.Error()
	}
	return st
}

// fleetLoop scrapes on FleetInterval until Close. One immediate scrape
// seeds the fleet view so a fresh gateway doesn't report "no scrape
// yet" for a whole interval.
func (g *Gateway) fleetLoop() {
	defer g.healthWG.Done()
	g.ScrapeFleetNow()
	ticker := time.NewTicker(g.cfg.FleetInterval)
	defer ticker.Stop()
	for {
		select {
		case <-g.healthStop:
			return
		case <-ticker.C:
			g.ScrapeFleetNow()
		}
	}
}

// mergedHistogram merges one named wire histogram across the scraped
// backends.
func (g *Gateway) mergedHistogram(states []fleetBackendState, name string) *telemetry.HistogramSnapshot {
	merged := &telemetry.HistogramSnapshot{}
	for i := range states {
		if states[i].err != "" {
			continue
		}
		if ws, ok := states[i].snap.Histograms[name]; ok {
			s := ws.Snapshot()
			merged.Merge(s)
		}
	}
	return merged
}

// fleetBackendMetrics is one backend's row in the fleet panel: its own
// render quantiles next to the fleet's, so per-backend skew is visible
// at a glance.
type fleetBackendMetrics struct {
	URL         string  `json:"url"`
	Err         string  `json:"err,omitempty"`
	Frames      int64   `json:"frames"`
	RenderCount int64   `json:"render_count"`
	RenderP50MS float64 `json:"render_p50_ms"`
	RenderP99MS float64 `json:"render_p99_ms"`
	// P99SkewVsFleet is backend p99 / fleet p99 (1.0 = typical; >> 1 =
	// this backend is the fleet's tail).
	P99SkewVsFleet float64 `json:"p99_skew_vs_fleet"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
}

// fleetMetrics is the merged fleet section of the gateway's /metrics.
type fleetMetrics struct {
	ScrapedAgoSeconds float64                   `json:"scraped_ago_seconds"`
	Backends          int                       `json:"backends"`
	Scraped           int                       `json:"scraped"` // backends whose last scrape succeeded
	Frames            int64                     `json:"frames"`
	Render            telemetry.QuantileSummary `json:"render"`
	AdmissionWait     telemetry.QuantileSummary `json:"admission_wait"`
	CacheBuild        telemetry.QuantileSummary `json:"cache_build"`
	CacheHitRate      float64                   `json:"cache_hit_rate"`
	PerBackend        []fleetBackendMetrics     `json:"per_backend"`
}

// fleetSnapshot merges the last scrape round into the fleet document.
// Zero-valued (with ScrapedAgoSeconds < 0) before the first scrape.
func (g *Gateway) fleetSnapshot() fleetMetrics {
	g.fleet.mu.Lock()
	at := g.fleet.at
	states := append([]fleetBackendState(nil), g.fleet.backends...)
	g.fleet.mu.Unlock()

	fm := fleetMetrics{Backends: len(g.backends), ScrapedAgoSeconds: -1}
	if at.IsZero() {
		return fm
	}
	fm.ScrapedAgoSeconds = time.Since(at).Seconds()

	render := g.mergedHistogram(states, "render_seconds")
	fm.Render = render.Summary()
	fm.AdmissionWait = g.mergedHistogram(states, "admission_wait_seconds").Summary()
	fm.CacheBuild = g.mergedHistogram(states, "cache_build_seconds").Summary()
	fleetP99 := float64(render.Quantile(0.99))

	var hits, misses int64
	for i := range states {
		st := &states[i]
		row := fleetBackendMetrics{URL: st.url, Err: st.err}
		if st.err == "" {
			fm.Scraped++
			fm.Frames += st.snap.Frames
			hits += st.snap.Cache.Hits
			misses += st.snap.Cache.Misses
			row.Frames = st.snap.Frames
			if ws, ok := st.snap.Histograms["render_seconds"]; ok {
				s := ws.Snapshot()
				row.RenderCount = s.Count
				row.RenderP50MS = float64(s.Quantile(0.50)) / 1e6
				row.RenderP99MS = float64(s.Quantile(0.99)) / 1e6
				if fleetP99 > 0 {
					row.P99SkewVsFleet = float64(s.Quantile(0.99)) / fleetP99
				}
			}
			if t := st.snap.Cache.Hits + st.snap.Cache.Misses; t > 0 {
				row.CacheHitRate = float64(st.snap.Cache.Hits) / float64(t)
			}
		}
		fm.PerBackend = append(fm.PerBackend, row)
	}
	if t := hits + misses; t > 0 {
		fm.CacheHitRate = float64(hits) / float64(t)
	}
	return fm
}

// fleetSLOSource maps one objective onto the merged fleet state, or nil
// when the objective cannot be answered from it — slo.Build skips those
// with a log line. Sources read cumulative fleet counters:
//
//   - latency objectives read the merged render histogram — good is the
//     cumulative count at or under the threshold, total the count;
//   - availability objectives read the summed /render endpoint counters
//     — good is requests minus 5xx responses.
//
// Only /render objectives are answerable: the fleet aggregation merges
// the render path alone. A backend restart resets its share of the
// counters; the engine's windowed deltas clamp negative movement to zero,
// so an alert can be briefly understated after a restart but never
// invented. The engine ticks from ScrapeFleetNow and on every read.
func (g *Gateway) fleetSLOSource(o slo.Objective) slo.Source {
	if o.Endpoint != "/render" {
		return nil
	}
	switch o.Kind {
	case slo.Latency:
		thr := o.ThresholdNS
		return func() (good, total int64) {
			merged := g.mergedHistogramLocked("render_seconds")
			return merged.CumulativeLE(thr), merged.Count
		}
	case slo.Availability:
		return func() (good, total int64) {
			g.fleet.mu.Lock()
			defer g.fleet.mu.Unlock()
			for i := range g.fleet.backends {
				st := &g.fleet.backends[i]
				if st.err != "" {
					continue
				}
				if ep, ok := st.snap.Endpoints["/render"]; ok {
					total += ep.Requests
					good += ep.Requests - ep.ServerErrors
				}
			}
			return good, total
		}
	}
	return nil
}
