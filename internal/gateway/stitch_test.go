package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"testing"
	"time"

	"shearwarp/internal/faultinject"
	"shearwarp/internal/server"
	"shearwarp/internal/slo"
	"shearwarp/internal/telemetry"
)

// TestEstimateOffset pins the NTP-style clock alignment math against
// hand-computed fixtures: positive and negative skews, and the
// minimum-slack sample winning over a queue-delayed one.
func TestEstimateOffset(t *testing.T) {
	if _, ok := estimateOffset(nil); ok {
		t.Fatal("estimateOffset(nil) reported ok")
	}

	// One attempt, backend clock far ahead of the gateway's: send=1000,
	// recv=2000 on the gateway; the backend served [1_000_000,
	// 1_000_500] on its own clock. The midpoint estimate centers the
	// backend interval inside the gateway's: [1250, 1750].
	off, ok := estimateOffset([]offsetSample{
		{sendNS: 1000, recvNS: 2000, backStartNS: 1_000_000, backEndNS: 1_000_500},
	})
	if !ok || off != -998_750 {
		t.Fatalf("ahead-clock offset = %d (ok=%v), want -998750", off, ok)
	}
	if lo, hi := 1_000_000+off, 1_000_500+off; lo != 1250 || hi != 1750 {
		t.Fatalf("aligned interval [%d, %d], want [1250, 1750] inside [1000, 2000]", lo, hi)
	}

	// Backend clock behind: the offset comes out positive.
	off, ok = estimateOffset([]offsetSample{
		{sendNS: 5_000_000, recvNS: 5_001_000, backStartNS: 100, backEndNS: 300},
	})
	if !ok || off != 5_000_300 {
		t.Fatalf("behind-clock offset = %d (ok=%v), want 5000300", off, ok)
	}

	// Hedged shape, two samples against one backend: the first spent
	// 900ns of its 1000ns round trip queueing (slack 900), the second is
	// tight (slack 100) — the tight sample's midpoint must win.
	off, ok = estimateOffset([]offsetSample{
		{sendNS: 0, recvNS: 1000, backStartNS: 10_400, backEndNS: 10_500},    // slack 900
		{sendNS: 2000, recvNS: 3000, backStartNS: 12_050, backEndNS: 12_950}, // slack 100
	})
	if !ok || off != (2000+3000-12_050-12_950)/2 {
		t.Fatalf("min-slack offset = %d (ok=%v), want the tight sample's midpoint %d",
			off, ok, (2000+3000-12_050-12_950)/2)
	}
}

// stitchedDoc is the decode shape CI and tests use for /debug/trace
// output — the parts of the Chrome trace-event document the stitcher
// guarantees.
type stitchedDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		PID  uint64         `json:"pid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
	Stitch          struct {
		ID   uint64 `json:"id"`
		Rows []struct {
			Label    string `json:"label"`
			OffsetNS int64  `json:"offset_ns"`
			Spans    int    `json:"spans"`
			Canceled bool   `json:"canceled"`
			Err      string `json:"err"`
		} `json:"rows"`
	} `json:"stitch"`
}

// affinityVolume finds a registered volume whose ring order starts on
// backend index want, so a test can steer the first attempt.
func affinityVolume(t *testing.T, g *Gateway, names []string, want int) string {
	t.Helper()
	for _, name := range names {
		order := g.ring.order(affinityKey(url.Values{"volume": {name}}))
		if len(order) > 0 && order[0] == want {
			return name
		}
	}
	t.Fatalf("no volume among %v hashes to backend %d first", names, want)
	return ""
}

// TestStitchedTraceE2E is the acceptance scenario end to end: a request
// through a two-backend fleet whose affinity owner is slow (server-side
// composite delays force the hedge) and whose hedge target panics
// (forcing a retry). The single client request therefore fans into a
// first attempt, a failed hedge, and a retry; the stitched
// /debug/trace?id=N document must show the gateway row plus a row per
// attempt, with at least two backend span sets, the cancelled loser
// marked rather than dropped, and every non-cancelled backend row's
// clock-aligned spans contained in its gateway attempt window.
func TestStitchedTraceE2E(t *testing.T) {
	vols := make([]string, 8)
	for i := range vols {
		vols[i] = fmt.Sprintf("vol%02d", i)
	}
	slowFaults, err := faultinject.Parse("delay@composite:d=10ms:c=60")
	if err != nil {
		t.Fatal(err)
	}
	panicFaults, err := faultinject.Parse("panic@composite:c=100")
	if err != nil {
		t.Fatal(err)
	}
	slowBack := startRealBackendCfg(t, server.Config{Procs: 1, MaxConcurrent: 4, PoolSize: 2, Faults: slowFaults}, vols...)
	panicBack := startRealBackendCfg(t, server.Config{Procs: 1, MaxConcurrent: 4, PoolSize: 2, Faults: panicFaults}, vols...)

	g, err := New(Config{
		Backends:        []string{slowBack.url, panicBack.url},
		HealthInterval:  25 * time.Millisecond,
		HealthTimeout:   250 * time.Millisecond,
		FailThreshold:   1,
		RiseThreshold:   1,
		MaxAttempts:     4,
		RetryBaseDelay:  time.Millisecond,
		RetryMaxDelay:   10 * time.Millisecond,
		HedgeQuantile:   0.95,
		HedgeMin:        time.Millisecond,
		HedgeMax:        25 * time.Millisecond, // cold gateway hedges here
		BreakerFailures: 100,
		BreakerCooldown: 50 * time.Millisecond,
		DefaultBudget:   30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	volume := affinityVolume(t, g, vols, 0) // first attempt lands on the slow backend
	resp, body := gwGet(t, g, "/render?volume="+volume+"&alg=new&yaw=30&pitch=15")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged-and-retried render = %d (%s), want 200", resp.StatusCode, body)
	}
	idStr := resp.Header.Get(server.TraceHeader)
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil || id == 0 {
		t.Fatalf("response %s = %q, want a fleet trace id", server.TraceHeader, idStr)
	}
	if atts, _ := strconv.Atoi(resp.Header.Get("X-Shearwarp-Attempts")); atts < 3 {
		t.Fatalf("attempts = %d, want >= 3 (first try + hedge + retry)", atts)
	}

	// The trace publishes once the last attempt (the cancelled loser)
	// drains; by then every AttemptRef is final.
	var tr *telemetry.Trace
	waitFor(t, "gateway trace published", func() bool {
		tr = g.tracer.Find(id)
		return tr != nil
	})
	if len(tr.Attempts) < 3 {
		t.Fatalf("trace retained %d attempts, want >= 3: %+v", len(tr.Attempts), tr.Attempts)
	}
	var sawHedge, sawRetry, sawCanceled bool
	for _, a := range tr.Attempts {
		sawHedge = sawHedge || a.Hedged
		sawRetry = sawRetry || a.Retry
		sawCanceled = sawCanceled || a.Canceled
	}
	if !sawHedge || !sawRetry || !sawCanceled {
		t.Fatalf("attempt shape hedge=%v retry=%v canceled=%v, want all: %+v",
			sawHedge, sawRetry, sawCanceled, tr.Attempts)
	}

	// Stitch directly for the numeric assertions.
	rows := g.stitch(context.Background(), tr)
	if len(rows) != 1+len(tr.Attempts) {
		t.Fatalf("stitched %d rows for %d attempts, want gateway + one per attempt",
			len(rows), len(tr.Attempts))
	}
	if rows[0].Label != "gateway" || rows[0].Trace == nil || len(rows[0].Trace.Spans) == 0 {
		t.Fatalf("row 0 = %+v, want the gateway's own span set", rows[0])
	}
	withSpans := 0
	const tol = int64(5 * time.Millisecond)
	for i, a := range tr.Attempts {
		row := rows[i+1]
		if row.Canceled != a.Canceled {
			t.Fatalf("row %d canceled=%v, attempt canceled=%v — loser dropped or mislabeled", i+1, row.Canceled, a.Canceled)
		}
		if row.Trace == nil {
			if row.Err == "" {
				t.Fatalf("row %d has neither span data nor an error mark: %+v", i+1, row)
			}
			continue
		}
		withSpans++
		if a.Canceled {
			continue // cancel time breaks the symmetry assumption; alignment is best-effort
		}
		lo := row.Trace.StartNS + row.OffsetNS
		hi := lo + row.Trace.DurNS
		if lo < a.SendNS-tol || hi > a.RecvNS+tol {
			t.Fatalf("attempt %d aligned backend interval [%d, %d] outside gateway window [%d, %d]",
				a.Ordinal, lo, hi, a.SendNS, a.RecvNS)
		}
	}
	if withSpans < 2 {
		t.Fatalf("only %d backend rows carry span sets, want >= 2", withSpans)
	}

	// And over HTTP: the Chrome document the acceptance criterion names.
	resp, body = gwGet(t, g, "/debug/trace?id="+idStr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace?id=%s = %d (%s)", idStr, resp.StatusCode, body)
	}
	var doc stitchedDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("stitched trace is not valid JSON: %v\n%s", err, body)
	}
	if doc.Stitch.ID != id || len(doc.Stitch.Rows) != 1+len(tr.Attempts) {
		t.Fatalf("stitch summary id=%d rows=%d, want id=%d rows=%d",
			doc.Stitch.ID, len(doc.Stitch.Rows), id, 1+len(tr.Attempts))
	}
	procName := map[uint64]bool{}
	backendPIDsWithSpans := map[uint64]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procName[ev.PID] = true
		}
		if ev.Ph == "X" && ev.PID > 1 {
			backendPIDsWithSpans[ev.PID] = true
		}
	}
	if len(procName) != 1+len(tr.Attempts) {
		t.Fatalf("%d process rows in Chrome doc, want %d (every attempt visible)",
			len(procName), 1+len(tr.Attempts))
	}
	if len(backendPIDsWithSpans) < 2 {
		t.Fatalf("%d backend rows carry spans in the Chrome doc, want >= 2", len(backendPIDsWithSpans))
	}
}

// TestBackendAdoptsPropagatedTrace pins the propagation contract on the
// backend alone: a request carrying X-Shearwarp-Trace and
// X-Shearwarp-Attempt is served under that identity — echoed in the
// response, retained under the fleet ID, labeled with the ordinal.
func TestBackendAdoptsPropagatedTrace(t *testing.T) {
	b := startRealBackend(t)
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()

	req, _ := http.NewRequest(http.MethodGet, b.url+"/render?volume=mri&yaw=10&pitch=5", nil)
	req.Header.Set(server.TraceHeader, "987654321")
	req.Header.Set(server.AttemptHeader, "2")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("render = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get(server.TraceHeader); got != "987654321" {
		t.Fatalf("echoed trace id %q, want the propagated 987654321", got)
	}

	sresp, err := client.Get(b.url + "/debug/spans?id=987654321&format=raw")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/spans?id=987654321 = %d, want 200", sresp.StatusCode)
	}
	var traces []*telemetry.Trace
	if err := json.NewDecoder(sresp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || traces[0].ID != 987654321 || traces[0].Attempt != 2 {
		t.Fatalf("retained %+v, want one trace under id 987654321 attempt 2", traces)
	}
}

// TestTracingDisabled pins the off switch: TraceRing < 0 keeps minting
// and propagating fleet IDs (the header contract is unconditional) but
// retains nothing, and the debug surfaces answer 404 instead of lying.
func TestTracingDisabled(t *testing.T) {
	backs := []*fakeBackend{newFakeBackend(t)}
	g := newTestGateway(t, backs, func(c *Config) { c.TraceRing = -1 })

	resp, _ := gwGet(t, g, "/render?volume=mri")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("render with tracing off = %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get(server.TraceHeader) == "" {
		t.Fatal("trace id header missing with tracing off — propagation must not depend on retention")
	}
	if resp, _ := gwGet(t, g, "/debug/spans"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/spans with tracing off = %d, want 404", resp.StatusCode)
	}
	if resp, _ := gwGet(t, g, "/debug/trace?id=1"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/trace with tracing off = %d, want 404", resp.StatusCode)
	}
}

// TestFleetMetricsMerge pins the aggregation layer: a scrape round over
// two live backends merges their histograms exactly (fleet count = sum
// of member counts), degrades per-backend on a dead member, feeds the
// fleet SLO engine, and surfaces everything in /metrics and /debug/slo.
func TestFleetMetricsMerge(t *testing.T) {
	backs := []*realBackend{startRealBackend(t), startRealBackend(t)}
	g, err := New(Config{
		Backends:       []string{backs[0].url, backs[1].url},
		HealthInterval: 25 * time.Millisecond,
		HealthTimeout:  250 * time.Millisecond,
		FailThreshold:  1,
		RiseThreshold:  1,
		MaxAttempts:    2,
		RetryBaseDelay: time.Millisecond,
		HedgeQuantile:  -1,
		DefaultBudget:  10 * time.Second,
		FleetInterval:  time.Hour, // loop idle; ScrapeFleetNow drives the test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	for i := 0; i < 6; i++ {
		resp, body := gwGet(t, g, fmt.Sprintf("/render?volume=mri&alg=new&yaw=%d&pitch=10", i*60))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("render %d = %d (%s)", i, resp.StatusCode, body)
		}
	}

	g.ScrapeFleetNow()
	fm := g.fleetSnapshot()
	if fm.Scraped != 2 || fm.ScrapedAgoSeconds < 0 {
		t.Fatalf("fleet scraped=%d ago=%.1f, want 2 backends scraped", fm.Scraped, fm.ScrapedAgoSeconds)
	}
	var sum int64
	for _, row := range fm.PerBackend {
		if row.Err != "" {
			t.Fatalf("backend row %s unexpectedly errored: %s", row.URL, row.Err)
		}
		sum += row.RenderCount
	}
	if fm.Render.Count != sum || fm.Render.Count < 6 {
		t.Fatalf("merged render count %d, per-backend sum %d (want equal and >= 6) — merge must be exact",
			fm.Render.Count, sum)
	}
	if fm.Frames < 6 {
		t.Fatalf("fleet frames = %d, want >= 6", fm.Frames)
	}

	// The merged state answers the fleet SLO engine.
	if g.fleetSLO == nil {
		t.Fatal("fleet SLO engine not built despite FleetInterval > 0")
	}
	resp, body := gwGet(t, g, "/debug/slo")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/slo = %d (%s)", resp.StatusCode, body)
	}
	var sloDoc struct {
		Alerting   int          `json:"alerting"`
		Objectives []slo.Status `json:"objectives"`
	}
	if err := json.Unmarshal(body, &sloDoc); err != nil {
		t.Fatalf("/debug/slo JSON: %v\n%s", err, body)
	}
	if len(sloDoc.Objectives) == 0 {
		t.Fatal("/debug/slo lists no objectives, want the default /render pair")
	}

	// /metrics carries the fleet section and trace links.
	resp, body = gwGet(t, g, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	var md struct {
		Fleet struct {
			Scraped    int `json:"scraped"`
			PerBackend []struct {
				URL string `json:"url"`
			} `json:"per_backend"`
		} `json:"fleet"`
		RecentTraces []struct {
			ID       uint64 `json:"id"`
			TraceURL string `json:"trace_url"`
		} `json:"recent_traces"`
	}
	if err := json.Unmarshal(body, &md); err != nil {
		t.Fatalf("/metrics JSON: %v", err)
	}
	if md.Fleet.Scraped != 2 || len(md.Fleet.PerBackend) != 2 {
		t.Fatalf("metrics fleet section scraped=%d rows=%d, want 2/2", md.Fleet.Scraped, len(md.Fleet.PerBackend))
	}
	if len(md.RecentTraces) == 0 || md.RecentTraces[0].TraceURL == "" {
		t.Fatalf("recent_traces = %+v, want entries with trace links", md.RecentTraces)
	}

	// Kill one member: the next round degrades that row, keeps the rest.
	backs[1].kill()
	g.ScrapeFleetNow()
	fm = g.fleetSnapshot()
	if fm.Scraped != 1 {
		t.Fatalf("fleet scraped=%d after killing a backend, want 1", fm.Scraped)
	}
	errored := 0
	for _, row := range fm.PerBackend {
		if row.Err != "" {
			errored++
		}
	}
	if errored != 1 {
		t.Fatalf("%d errored backend rows, want exactly the killed one", errored)
	}
}
