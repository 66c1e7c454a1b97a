package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"shearwarp/internal/telemetry"
	"shearwarp/internal/telemetry/promtest"
)

// getWithAccept is get with an Accept header.
func getWithAccept(t *testing.T, client *http.Client, url, accept string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestMetricsContentNegotiation checks that /metrics stays JSON by
// default — with the exact document shape pre-telemetry consumers parse —
// and serves the Prometheus text exposition under Accept: text/plain.
func TestMetricsContentNegotiation(t *testing.T) {
	s := newTestServer(t, Config{Procs: 2, MaxConcurrent: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := get(t, ts.Client(), ts.URL+"/render?volume=mri&yaw=30&pitch=15"); code != http.StatusOK {
		t.Fatalf("render: status %d", code)
	}

	// Default (and explicitly JSON-preferring) requests get the JSON
	// document with exactly the historical top-level keys — telemetry
	// must not have leaked new fields into it.
	for _, accept := range []string{"", "application/json", "*/*"} {
		resp, body := getWithAccept(t, ts.Client(), ts.URL+"/metrics", accept)
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("Accept %q: Content-Type = %q, want application/json", accept, ct)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("Accept %q: bad JSON: %v", accept, err)
		}
		want := []string{"uptime_seconds", "build", "frames",
			"rendering", "queued",
			"frame_panics", "frames_canceled", "watchdog_stalls", "renderers_replaced",
			"endpoints", "cache", "cache_tenants", "slo", "phases", "histograms"}
		if len(doc) != len(want) {
			t.Fatalf("JSON document has %d top-level keys, want %d: %v", len(doc), len(want), keys(doc))
		}
		for _, k := range want {
			if _, ok := doc[k]; !ok {
				t.Fatalf("JSON document missing key %q; has %v", k, keys(doc))
			}
		}
	}

	// Prometheus scrapes (Accept: text/plain) get a parseable 0.0.4
	// exposition with the counters and histograms.
	resp, body := getWithAccept(t, ts.Client(), ts.URL+"/metrics", "text/plain")
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.PromContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, telemetry.PromContentType)
	}
	samples := promtest.Validate(t, string(body))
	if samples["shearwarpd_frames_total"] < 1 {
		t.Fatalf("shearwarpd_frames_total = %g, want >= 1", samples["shearwarpd_frames_total"])
	}
	if samples[`shearwarpd_requests_total{path="/render"}`] < 1 {
		t.Fatal("missing /render request counter")
	}
	if samples[`shearwarpd_request_duration_seconds_count{path="/render"}`] < 1 {
		t.Fatal("missing /render latency histogram")
	}
	if samples[`shearwarpd_phase_seconds_count{phase="warp",mode="composite"}`] < 1 {
		t.Fatal("missing warp phase histogram observations")
	}
	if samples["shearwarpd_admission_wait_seconds_count"] < 1 {
		t.Fatal("missing admission wait histogram observations")
	}
	if samples["shearwarpd_cache_build_seconds_count"] < 1 {
		t.Fatal("missing cache build histogram observations")
	}

	// OpenMetrics-style Accept headers also negotiate to text.
	resp, _ = getWithAccept(t, ts.Client(), ts.URL+"/metrics", "application/openmetrics-text; version=1.0.0")
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.PromContentType {
		t.Fatalf("openmetrics Accept: Content-Type = %q", ct)
	}
}

func keys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestDebugSpans renders through the service and checks /debug/spans
// exports loadable Chrome trace-event JSON carrying the per-worker
// composite and warp spans, plus the timeline and single-trace views.
func TestDebugSpans(t *testing.T) {
	s := newTestServer(t, Config{Procs: 2, MaxConcurrent: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		url := fmt.Sprintf("%s/render?volume=mri&yaw=%d&pitch=15&alg=new", ts.URL, 30+5*i)
		if code, _ := get(t, ts.Client(), url); code != http.StatusOK {
			t.Fatalf("render %d: status %d", i, code)
		}
	}

	code, body := get(t, ts.Client(), ts.URL+"/debug/spans")
	if code != http.StatusOK {
		t.Fatalf("/debug/spans: status %d: %s", code, body)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  uint64 `json:"pid"`
			Tid  int    `json:"tid"`
			Dur  float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/debug/spans: not valid trace JSON: %v", err)
	}
	byName := map[string]int{}
	workers := map[int]bool{}
	var firstID uint64
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		byName[ev.Name]++
		if ev.Name == "composite-own" || ev.Name == "warp" {
			workers[ev.Tid] = true
		}
		if firstID == 0 {
			firstID = ev.Pid
		}
	}
	for _, want := range []string{"admission", "setup", "composite-own", "warp"} {
		if byName[want] == 0 {
			t.Fatalf("no %q spans in export; have %v", want, byName)
		}
	}
	// Both workers' lanes must appear (tid = worker + 1).
	if !workers[1] || !workers[2] {
		t.Fatalf("expected composite/warp spans on both worker lanes, got %v", workers)
	}

	// ?id=N narrows to one trace.
	code, body = get(t, ts.Client(), fmt.Sprintf("%s/debug/spans?id=%d", ts.URL, firstID))
	if code != http.StatusOK {
		t.Fatalf("?id=%d: status %d: %s", firstID, code, body)
	}
	code, _ = get(t, ts.Client(), ts.URL+"/debug/spans?id=999999")
	if code != http.StatusNotFound {
		t.Fatalf("?id=999999: status %d, want 404", code)
	}
	code, _ = get(t, ts.Client(), ts.URL+"/debug/spans?id=nope")
	if code != http.StatusBadRequest {
		t.Fatalf("?id=nope: status %d, want 400", code)
	}

	// The timeline view renders the per-worker busy/sync bars.
	code, body = get(t, ts.Client(), ts.URL+"/debug/spans?view=timeline")
	if code != http.StatusOK {
		t.Fatalf("timeline: status %d", code)
	}
	if !strings.Contains(string(body), "bars: B busy, S sync, . imbalance") ||
		!strings.Contains(string(body), "busy(ms)") {
		t.Fatalf("timeline output missing worker bars:\n%s", body)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing log output
// written from both the handler and its render goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDebugSpansDisabled checks TraceRing < 0 turns /debug/spans off.
func TestDebugSpansDisabled(t *testing.T) {
	s := newTestServer(t, Config{Procs: 2, MaxConcurrent: 2, TraceRing: -1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := get(t, ts.Client(), ts.URL+"/render?volume=mri&yaw=30&pitch=15"); code != http.StatusOK {
		t.Fatal("render failed with tracing disabled")
	}
	if code, _ := get(t, ts.Client(), ts.URL+"/debug/spans"); code != http.StatusNotFound {
		t.Fatalf("/debug/spans with tracing disabled: status %d, want 404", code)
	}
}

// TestPhasesReportedByDefault: every served frame of a shear-warp
// algorithm lands in /metrics' phases — on the zero-value Config the
// benchmark runs, and with traces not retained at all.
func TestPhasesReportedByDefault(t *testing.T) {
	for _, cfg := range []Config{{}, {TraceRing: -1}} {
		s := newTestServer(t, cfg)
		ts := httptest.NewServer(s.Handler())
		algs := []string{"new", "old", "serial", "raycast"}
		for _, alg := range algs {
			if code, body := get(t, ts.Client(), ts.URL+"/render?volume=mri&yaw=30&pitch=15&alg="+alg); code != http.StatusOK {
				t.Fatalf("TraceRing %d alg %s: status %d: %s", cfg.TraceRing, alg, code, body)
			}
		}
		ph := s.metricsSnapshot().Phases
		if want := int64(len(algs) - 1); ph.Frames != want { // raycast has no phases
			t.Errorf("TraceRing %d: phases count %d frames, want %d", cfg.TraceRing, ph.Frames, want)
		}
		if ph.PhaseNS["composite-own"] <= 0 || ph.PhaseNS["warp"] <= 0 || ph.Counts["scanlines"] <= 0 || ph.WallNS <= 0 {
			t.Errorf("TraceRing %d: empty phases %+v", cfg.TraceRing, ph)
		}
		ts.Close()
		s.Close()
	}
}

// TestDebugLatency checks the quantile digest document.
func TestDebugLatency(t *testing.T) {
	s := newTestServer(t, Config{Procs: 2, MaxConcurrent: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 4; i++ {
		if code, _ := get(t, ts.Client(), ts.URL+"/render?volume=mri&yaw=30&pitch=15"); code != http.StatusOK {
			t.Fatalf("render %d failed", i)
		}
	}

	code, body := get(t, ts.Client(), ts.URL+"/debug/latency")
	if code != http.StatusOK {
		t.Fatalf("/debug/latency: status %d", code)
	}
	var ls LatencySnapshot
	if err := json.Unmarshal(body, &ls); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	r := ls.Endpoints["/render"]
	if r.Count != 4 {
		t.Fatalf("render latency count = %d, want 4", r.Count)
	}
	if r.P50MS <= 0 || r.P99MS < r.P50MS || r.MaxMS < r.P99MS {
		t.Fatalf("implausible quantiles: %+v", r)
	}
	if ls.Phases["warp"].Count < 1 {
		t.Fatalf("no warp phase observations: %+v", ls.Phases)
	}
	if ls.AdmissionWait.Count < 4 {
		t.Fatalf("admission wait count = %d, want >= 4", ls.AdmissionWait.Count)
	}
}

// TestStructuredLogging checks the request path emits correlated JSON
// log records carrying the request ID.
func TestStructuredLogging(t *testing.T) {
	var buf syncBuffer
	s := newTestServer(t, Config{
		Procs: 2, MaxConcurrent: 2,
		Logger: telemetry.NewLogger(&buf, "json", -4), // -4 = slog.LevelDebug
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := get(t, ts.Client(), ts.URL+"/render?volume=mri&yaw=30&pitch=15"); code != http.StatusOK {
		t.Fatal("render failed")
	}

	var sawComplete, sawBuild bool
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable log line %q: %v", line, err)
		}
		switch rec["msg"] {
		case "render complete":
			sawComplete = true
			if id, _ := rec["req"].(float64); id < 1 {
				t.Fatalf("render complete without request ID: %v", rec)
			}
			if rec["volume"] != "mri" {
				t.Fatalf("render complete without volume: %v", rec)
			}
		case "cache build":
			sawBuild = true
		}
	}
	if !sawComplete {
		t.Fatalf("no 'render complete' record in:\n%s", buf.String())
	}
	if !sawBuild {
		t.Fatalf("no 'cache build' record in:\n%s", buf.String())
	}
}
