package gateway

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"shearwarp/internal/telemetry"
	"shearwarp/internal/telemetry/promtest"
)

// TestGatewayPromExposition parse-checks the gateway's Prometheus
// /metrics after traffic and a fleet scrape, and pins its families: every
// shearwarpgw_* family is present, nothing else is, and the per-backend
// families carry one series per backend.
func TestGatewayPromExposition(t *testing.T) {
	backs := []*realBackend{startRealBackend(t), startRealBackend(t)}
	g := newTestGateway(t, nil, func(c *Config) {
		c.Backends = []string{backs[0].url, backs[1].url}
		c.FleetInterval = time.Hour // loop idle; ScrapeFleetNow drives the test
	})
	for i := 0; i < 4; i++ {
		if resp, body := gwGet(t, g, fmt.Sprintf("/render?volume=mri&yaw=%d", i*45)); resp.StatusCode != http.StatusOK {
			t.Fatalf("render %d = %d (%s)", i, resp.StatusCode, body)
		}
	}
	g.ScrapeFleetNow()

	req, err := http.NewRequest(http.MethodGet, "http://gateway/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != telemetry.PromContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, telemetry.PromContentType)
	}
	body := rec.Body.String()
	samples := promtest.Validate(t, body)

	want := []string{
		"shearwarpgw_requests_total", "shearwarpgw_success_total", "shearwarpgw_retries_total",
		"shearwarpgw_hedges_total", "shearwarpgw_hedge_wins_total", "shearwarpgw_no_backend_total",
		"shearwarpgw_attempts_exhausted_total", "shearwarpgw_hedge_delay_seconds", "shearwarpgw_draining",
		"shearwarpgw_backend_healthy", "shearwarpgw_backend_breaker_state",
		"shearwarpgw_backend_breaker_opens_total", "shearwarpgw_backend_inflight",
		"shearwarpgw_backend_requests_total", "shearwarpgw_backend_failures_total",
		"shearwarpgw_backend_retries_total", "shearwarpgw_backend_hedges_total",
		"shearwarpgw_backend_hedge_wins_total",
		"shearwarpgw_render_seconds", "shearwarpgw_attempt_seconds",
		"shearwarpgw_fleet_scraped_backends", "shearwarpgw_fleet_scrape_age_seconds",
		"shearwarpgw_fleet_frames_total", "shearwarpgw_fleet_cache_hit_rate",
		"shearwarpgw_fleet_render_seconds",
	}
	var got []string
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			got = append(got, f[2])
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		sort.Strings(got)
		t.Fatalf("families = %v\nwant (in this order) %v", got, want)
	}
	for _, fam := range want {
		if !strings.HasPrefix(fam, "shearwarpgw_backend_") {
			continue
		}
		for _, b := range backs {
			if _, ok := samples[fam+`{backend="`+b.url+`"}`]; !ok {
				t.Errorf("%s: no series for backend %s", fam, b.url)
			}
		}
	}
	if samples["shearwarpgw_requests_total"] != 4 || samples["shearwarpgw_fleet_scraped_backends"] != 2 {
		t.Fatalf("requests_total = %v, fleet_scraped_backends = %v; want 4 and 2",
			samples["shearwarpgw_requests_total"], samples["shearwarpgw_fleet_scraped_backends"])
	}
	if n := samples["shearwarpgw_render_seconds_count"]; n != 4 {
		t.Fatalf("render_seconds_count = %v, want 4", n)
	}
	// 9 gateway series, 9 per-backend families x 2 backends, 4 fleet
	// series, and 3 histograms of 27 le buckets + +Inf + _sum + _count.
	if len(samples) != 9+9*2+4+3*30 {
		t.Fatalf("%d samples, want %d", len(samples), 9+9*2+4+3*30)
	}
}
