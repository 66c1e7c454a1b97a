package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"shearwarp/internal/slo"
	"shearwarp/internal/telemetry/promtest"
)

// TestSLOAlertFlip wires a deliberately violated latency objective (no
// real render finishes in 1ns) next to a satisfiable availability
// objective and checks the violated one — and only it — flips its
// burn-rate alert on /debug/slo and in the Prometheus gauges.
func TestSLOAlertFlip(t *testing.T) {
	s := newTestServer(t, Config{
		Procs: 2, MaxConcurrent: 2,
		SLO: []slo.Objective{
			{Kind: slo.Latency, Endpoint: "/render", ThresholdNS: 1, Target: 0.99},
			{Kind: slo.Availability, Endpoint: "/render", Target: 0.99},
		},
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		if code, _ := get(t, ts.Client(), ts.URL+"/render?volume=mri&yaw=30&pitch=15"); code != http.StatusOK {
			t.Fatalf("render %d failed", i)
		}
	}

	code, body := get(t, ts.Client(), ts.URL+"/debug/slo")
	if code != http.StatusOK {
		t.Fatalf("/debug/slo: status %d: %s", code, body)
	}
	var doc slo.Snapshot
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/debug/slo: bad JSON: %v", err)
	}
	if len(doc.Objectives) != 2 {
		t.Fatalf("objectives = %d, want 2", len(doc.Objectives))
	}
	byName := map[string]slo.Status{}
	for _, st := range doc.Objectives {
		byName[st.Name] = st
	}
	lat := byName["latency@/render"]
	if !lat.Alerting || lat.Compliant || lat.BudgetRemaining >= 0 {
		t.Fatalf("violated latency objective not alerting: %+v", lat)
	}
	if lat.FastBurn < lat.BurnThreshold || lat.SlowBurn < lat.BurnThreshold {
		t.Fatalf("violated objective burn rates too low: %+v", lat)
	}
	avail := byName["availability@/render"]
	if avail.Alerting || !avail.Compliant {
		t.Fatalf("availability objective should be healthy: %+v", avail)
	}
	if doc.Alerting != 1 {
		t.Fatalf("alerting count = %d, want 1", doc.Alerting)
	}
	// Worst objective sorts first.
	if doc.Objectives[0].Name != "latency@/render" {
		t.Fatalf("alerting objective not sorted first: %v", doc.Objectives[0].Name)
	}

	// The same judgments appear as Prometheus gauges.
	_, prom := getWithAccept(t, ts.Client(), ts.URL+"/metrics", "text/plain")
	samples := promtest.Validate(t, string(prom))
	if samples[`shearwarpd_slo_alerting{slo="latency@/render"}`] != 1 {
		t.Fatal("prom: violated objective not alerting")
	}
	if samples[`shearwarpd_slo_alerting{slo="availability@/render"}`] != 0 {
		t.Fatal("prom: healthy objective alerting")
	}
	if v, ok := samples[`shearwarpd_slo_error_budget_remaining{slo="latency@/render"}`]; !ok || v >= 0 {
		t.Fatalf("prom: budget remaining = %g (present %v), want < 0", v, ok)
	}
	if samples[`shearwarpd_slo_fast_burn{slo="latency@/render"}`] < 2 {
		t.Fatal("prom: fast burn missing or too low")
	}

	// And in the JSON /metrics document.
	_, jbody := getWithAccept(t, ts.Client(), ts.URL+"/metrics", "application/json")
	var snap MetricsSnapshot
	if err := json.Unmarshal(jbody, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.SLO) != 2 {
		t.Fatalf("metrics JSON slo entries = %d, want 2", len(snap.SLO))
	}
}

// TestSLODisabled checks an empty objective list turns the engine off.
func TestSLODisabled(t *testing.T) {
	s := newTestServer(t, Config{Procs: 2, MaxConcurrent: 2, SLO: []slo.Objective{}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, _ := get(t, ts.Client(), ts.URL+"/debug/slo"); code != http.StatusNotFound {
		t.Fatalf("/debug/slo with engine disabled: status %d, want 404", code)
	}
}

// TestSLOUnknownEndpointSkipped: an objective naming an endpoint the
// server does not serve is dropped, not fatal.
func TestSLOUnknownEndpointSkipped(t *testing.T) {
	s := newTestServer(t, Config{
		Procs: 2, MaxConcurrent: 2,
		SLO: []slo.Objective{
			{Kind: slo.Availability, Endpoint: "/render", Target: 0.99},
			{Kind: slo.Availability, Endpoint: "/nope", Target: 0.99},
		},
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, body := get(t, ts.Client(), ts.URL+"/debug/slo")
	if code != http.StatusOK {
		t.Fatalf("/debug/slo: status %d", code)
	}
	var doc slo.Snapshot
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Objectives) != 1 || doc.Objectives[0].Endpoint != "/render" {
		t.Fatalf("objectives = %+v, want the /render one only", doc.Objectives)
	}
}

// TestExemplarLinksTrace: after renders, /debug/latency carries at
// least one exemplar whose request ID resolves to a retained span trace.
func TestExemplarLinksTrace(t *testing.T) {
	s := newTestServer(t, Config{Procs: 2, MaxConcurrent: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
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
		t.Fatal(err)
	}
	if len(ls.RenderExemplars) == 0 {
		t.Fatal("no render exemplars after 3 renders")
	}
	ex := ls.RenderExemplars[0] // slowest first
	if ex.ReqID == 0 || ex.ValueMS <= 0 {
		t.Fatalf("degenerate exemplar: %+v", ex)
	}
	if !ex.TraceRetained || ex.TraceURL == "" {
		t.Fatalf("exemplar not linked to a retained trace: %+v", ex)
	}
	code, spans := get(t, ts.Client(), ts.URL+ex.TraceURL)
	if code != http.StatusOK {
		t.Fatalf("exemplar trace URL %s: status %d", ex.TraceURL, code)
	}
	if !strings.Contains(string(spans), fmt.Sprintf(`"pid": %d`, ex.ReqID)) &&
		!strings.Contains(string(spans), fmt.Sprintf(`"pid":%d`, ex.ReqID)) {
		t.Fatalf("trace export does not carry the exemplar's request ID %d", ex.ReqID)
	}
}

// TestProfileEndpoint: /debug/profile returns a pprof CPU profile
// (gzip) and enforces single-flight.
func TestProfileEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Procs: 2, MaxConcurrent: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := getWithAccept(t, ts.Client(), ts.URL+"/debug/profile?seconds=0.1", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/profile: status %d: %s", resp.StatusCode, body)
	}
	if len(body) < 2 || body[0] != 0x1f || body[1] != 0x8b {
		t.Fatalf("profile body is not gzip (pprof) data; first bytes % x", body[:min(len(body), 4)])
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Busy guard: a concurrent capture answers 409.
	s.profiling.Store(true)
	if code, _ := get(t, ts.Client(), ts.URL+"/debug/profile?seconds=0.1"); code != http.StatusConflict {
		t.Fatalf("concurrent capture: status %d, want 409", code)
	}
	s.profiling.Store(false)

	if code, _ := get(t, ts.Client(), ts.URL+"/debug/profile?seconds=-3"); code != http.StatusBadRequest {
		t.Fatal("negative seconds accepted")
	}
}

// TestProfileDuringRender: during=render delays the capture until a
// frame holds an admission slot, so the profile overlaps render work.
func TestProfileDuringRender(t *testing.T) {
	s := newTestServer(t, Config{Procs: 2, MaxConcurrent: 2})
	defer s.Close()
	s.renderHook = func() { time.Sleep(300 * time.Millisecond) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	renderDone := make(chan struct{})
	go func() {
		defer close(renderDone)
		get(t, ts.Client(), ts.URL+"/render?volume=mri&yaw=30&pitch=15")
	}()
	resp, _ := getWithAccept(t, ts.Client(), ts.URL+"/debug/profile?seconds=0.05&during=render", "")
	<-renderDone
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Shearwarp-Render-Overlap"); got != "in-flight" {
		t.Fatalf("X-Shearwarp-Render-Overlap = %q, want in-flight", got)
	}
}

// TestBuildInfoReported: the build/runtime identity appears in both
// /metrics representations.
func TestBuildInfoReported(t *testing.T) {
	s := newTestServer(t, Config{Procs: 2, MaxConcurrent: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := getWithAccept(t, ts.Client(), ts.URL+"/metrics", "application/json")
	var snap MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	b := snap.Build
	if b.GoVersion == "" || !strings.HasPrefix(b.GoVersion, "go") {
		t.Fatalf("build.go_version = %q", b.GoVersion)
	}
	if b.GOMAXPROCS < 1 || b.NumCPU < 1 || b.Goroutines < 1 || b.Procs != 2 {
		t.Fatalf("implausible runtime gauges: %+v", b)
	}
	if b.OS == "" || b.Arch == "" || b.Version == "" {
		t.Fatalf("missing build identity: %+v", b)
	}

	_, prom := getWithAccept(t, ts.Client(), ts.URL+"/metrics", "text/plain")
	samples := promtest.Validate(t, string(prom))
	var sawInfo bool
	for k := range samples {
		if strings.HasPrefix(k, "shearwarpd_build_info{") &&
			strings.Contains(k, `go_version="`+b.GoVersion+`"`) {
			sawInfo = true
		}
	}
	if !sawInfo {
		t.Fatal("prom exposition missing shearwarpd_build_info with go_version label")
	}
	if samples["shearwarpd_goroutines"] < 1 || samples["shearwarpd_gomaxprocs"] < 1 {
		t.Fatal("prom exposition missing runtime gauges")
	}
}

// TestHealthzVolumeNames: /healthz lists registered volumes for client
// auto-discovery (the load generator uses this).
func TestHealthzVolumeNames(t *testing.T) {
	s := newTestServer(t, Config{Procs: 2, MaxConcurrent: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts.Client(), ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz: status %d", code)
	}
	var doc struct {
		VolumeNames []string `json:"volume_names"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.VolumeNames) != 1 || doc.VolumeNames[0] != "mri" {
		t.Fatalf("volume_names = %v, want [mri]", doc.VolumeNames)
	}
}

// TestCacheTenantStatsReported: per-volume cache traffic reaches the
// JSON document joined with the registered name, and the prom series.
func TestCacheTenantStatsReported(t *testing.T) {
	s := newTestServer(t, Config{Procs: 2, MaxConcurrent: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		if code, _ := get(t, ts.Client(), ts.URL+"/render?volume=mri&yaw=30&pitch=15"); code != http.StatusOK {
			t.Fatalf("render %d failed", i)
		}
	}

	_, body := getWithAccept(t, ts.Client(), ts.URL+"/metrics", "application/json")
	var snap MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.CacheTenants) == 0 {
		t.Fatal("no cache tenants after renders")
	}
	var mri *TenantCacheStats
	for i := range snap.CacheTenants {
		if snap.CacheTenants[i].Name == "mri" {
			mri = &snap.CacheTenants[i]
		}
	}
	if mri == nil {
		t.Fatalf("no tenant joined to name mri: %+v", snap.CacheTenants)
	}
	if mri.Misses == 0 || mri.Builds == 0 || mri.BuildNS <= 0 {
		t.Fatalf("tenant build accounting empty: %+v", mri)
	}

	_, prom := getWithAccept(t, ts.Client(), ts.URL+"/metrics", "text/plain")
	samples := promtest.Validate(t, string(prom))
	if samples[`shearwarpd_cache_tenant_misses_total{tenant="mri"}`] < 1 {
		t.Fatal("prom exposition missing per-tenant cache series")
	}
}
