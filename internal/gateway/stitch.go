package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"

	"shearwarp/internal/telemetry"
)

// Cross-process trace stitching: /debug/trace?id=N joins the gateway's
// retained trace for one fleet request with the span sets every backend
// the request touched retained under the same ID, into a single Chrome
// trace-event document — one row for the gateway, one per attempt. The
// processes share no clock, so each backend's spans are shifted by an
// offset estimated from the attempt's send/receive instants, NTP style:
// the gateway knows when it sent the request (t0) and when the response
// finished (t1) on its own timeline, the backend reports when it
// started (b0) and finished (b1) on its timeline, and under symmetric
// network delay the offset is ((t0+t1)-(b0+b1))/2. Of a backend's
// candidate attempts, the sample with the least slack — the smallest
// (t1-t0)-(b1-b0), gateway round trip minus backend service time — is
// the one with the least unmodeled queueing, so it wins. Cancelled
// attempts are excluded: their receive instant is when the gateway gave
// up, not when the backend finished, which breaks the symmetry
// assumption (the e2e test covers exactly this hedged shape).

// offsetSample is one attempt's clock-alignment observation. sendNS and
// recvNS are on the gateway's trace timeline; backStartNS and backEndNS
// on the backend's.
type offsetSample struct {
	sendNS, recvNS         int64
	backStartNS, backEndNS int64
}

// estimateOffset returns the offset to add to backend timestamps to
// land them on the gateway timeline, from the minimum-slack sample.
// ok is false when samples is empty.
func estimateOffset(samples []offsetSample) (offset int64, ok bool) {
	var bestSlack int64
	for _, s := range samples {
		slack := (s.recvNS - s.sendNS) - (s.backEndNS - s.backStartNS)
		if !ok || slack < bestSlack {
			offset = ((s.sendNS + s.recvNS) - (s.backStartNS + s.backEndNS)) / 2
			bestSlack = slack
			ok = true
		}
	}
	return offset, ok
}

// backendSpanSets fetches a backend's retained traces for one fleet ID
// through the gateway's fault-free debug client. A non-200 (evicted or
// tracing disabled) or transport error returns it as err — the stitcher
// marks the row rather than dropping it.
func (g *Gateway) backendSpanSets(ctx context.Context, url string, id uint64) ([]*telemetry.Trace, error) {
	u := fmt.Sprintf("%s/debug/spans?id=%d&format=raw", url, id)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.debugClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("backend answered %d: %s", resp.StatusCode, string(body))
	}
	var traces []*telemetry.Trace
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		return nil, fmt.Errorf("decoding span sets: %w", err)
	}
	return traces, nil
}

// stitch assembles the stitched rows for one retained gateway trace:
// the gateway row first, then one row per attempt in launch order. Each
// backend is fetched once; its clock offset comes from its non-
// cancelled attempts (falling back to aligning starts when every
// attempt against it was cancelled).
func (g *Gateway) stitch(ctx context.Context, tr *telemetry.Trace) []telemetry.StitchedRow {
	rows := []telemetry.StitchedRow{{Label: "gateway", Trace: tr}}

	type fetched struct {
		traces []*telemetry.Trace
		err    error
	}
	perBackend := map[string]*fetched{}
	for _, a := range tr.Attempts {
		if a.Backend == "" {
			continue
		}
		if _, done := perBackend[a.Backend]; !done {
			traces, err := g.backendSpanSets(ctx, a.Backend, tr.ID)
			perBackend[a.Backend] = &fetched{traces: traces, err: err}
		}
	}

	// Per-backend clock offsets from the non-cancelled attempts.
	offsets := map[string]int64{}
	for url, f := range perBackend {
		var samples []offsetSample
		for _, a := range tr.Attempts {
			if a.Backend != url || a.Canceled {
				continue
			}
			if bt := findAttemptTrace(f.traces, a.Ordinal); bt != nil {
				samples = append(samples, offsetSample{
					sendNS: a.SendNS, recvNS: a.RecvNS,
					backStartNS: bt.StartNS, backEndNS: bt.StartNS + bt.DurNS,
				})
			}
		}
		if off, ok := estimateOffset(samples); ok {
			offsets[url] = off
			continue
		}
		// Every attempt here was cancelled: align the first one's start
		// with its send instant — the backend began serving roughly when
		// the gateway sent, and the loser's spans still land in the right
		// neighbourhood of the timeline.
		for _, a := range tr.Attempts {
			if a.Backend != url {
				continue
			}
			if bt := findAttemptTrace(f.traces, a.Ordinal); bt != nil {
				offsets[url] = a.SendNS - bt.StartNS
				break
			}
		}
	}

	for _, a := range tr.Attempts {
		label := fmt.Sprintf("backend %s attempt %d", a.Backend, a.Ordinal)
		if a.Canceled {
			label += " (canceled)"
		}
		row := telemetry.StitchedRow{Label: label, Canceled: a.Canceled}
		f := perBackend[a.Backend]
		switch {
		case f == nil:
			row.Err = "attempt never reached a backend"
		case f.err != nil:
			row.Err = "fetching spans: " + errString(f.err)
		default:
			if bt := findAttemptTrace(f.traces, a.Ordinal); bt != nil {
				row.Trace = bt
				row.OffsetNS = offsets[a.Backend]
			} else {
				row.Err = "no retained span set for this attempt (evicted?)"
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// findAttemptTrace picks the backend trace serving one attempt ordinal.
// A request the gateway cancelled before it reached the backend's
// handler leaves no trace; one the backend served leaves exactly one.
func findAttemptTrace(traces []*telemetry.Trace, ordinal int) *telemetry.Trace {
	for _, t := range traces {
		if t.Attempt == ordinal {
			return t
		}
	}
	return nil
}

// handleTrace is GET /debug/trace?id=N: the stitched fleet trace as one
// Chrome trace-event document. The gateway trace must still be retained
// here; backend rows degrade individually (dead backend, evicted span
// set) into marked rows instead of failing the whole stitch.
func (g *Gateway) handleTrace(w http.ResponseWriter, r *http.Request) {
	if g.tracer == nil {
		telemetry.WriteError(w, http.StatusNotFound, "span tracing disabled")
		return
	}
	v := r.URL.Query().Get("id")
	if v == "" {
		telemetry.WriteError(w, http.StatusBadRequest, "id required (e.g. /debug/trace?id=42)")
		return
	}
	id, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		telemetry.WriteError(w, http.StatusBadRequest, "bad id %q", v)
		return
	}
	tr := g.tracer.Find(id)
	if tr == nil {
		telemetry.WriteError(w, http.StatusNotFound, "no retained trace with id %d", id)
		return
	}
	rows := g.stitch(r.Context(), tr)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err := telemetry.WriteStitchedChromeTrace(w, id, rows); err != nil {
		g.log.Warn("stitched trace export failed", "id", id, "err", err)
	}
}

// recentTraceRef is one retained gateway trace's entry in /metrics
// "recent_traces": enough to follow the link into the stitcher.
type recentTraceRef struct {
	ID       uint64  `json:"id"`
	TraceURL string  `json:"trace_url"`
	Status   int     `json:"status"`
	DurMS    float64 `json:"dur_ms"`
	Attempts int     `json:"attempts"`
	Label    string  `json:"label"`
}

// recentTraces lists the most recently started retained traces, newest
// first, capped at n.
func (g *Gateway) recentTraces(n int) []recentTraceRef {
	if g.tracer == nil {
		return nil
	}
	traces := g.tracer.Traces()
	sort.Slice(traces, func(i, j int) bool { return traces[i].StartNS > traces[j].StartNS })
	if len(traces) > n {
		traces = traces[:n]
	}
	out := make([]recentTraceRef, 0, len(traces))
	for _, tr := range traces {
		out = append(out, recentTraceRef{
			ID:       tr.ID,
			TraceURL: fmt.Sprintf("/debug/trace?id=%d", tr.ID),
			Status:   tr.Status,
			DurMS:    float64(tr.DurNS) / 1e6,
			Attempts: len(tr.Attempts),
			Label:    tr.Label,
		})
	}
	return out
}
