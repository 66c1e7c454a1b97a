package server

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime/pprof"
	"strconv"
	"time"

	"shearwarp/internal/telemetry"
)

// handleProfile is GET /debug/profile?seconds=S[&during=render]: an
// on-demand CPU profile, correlated with the requests that ran inside
// the capture window.
//
//   - seconds (default 2, clamped to [0.05, 30]) is the capture length;
//   - during=render delays the capture until a /render frame is in
//     flight (bounded wait), so the profile actually contains render
//     work instead of an idle event loop;
//   - the response headers name the request-ID range that overlapped
//     the window (X-Shearwarp-Render-Reqs) and, when the span tracer
//     retained one of them, the slowest such trace
//     (X-Shearwarp-Slow-Trace: /debug/spans?id=N) — the pprof hot stack
//     and the span timeline describe the same slow request.
//
// Captures are single-flight: a second request during a capture answers
// 409 instead of queueing (runtime/pprof allows one profiler anyway).
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	secs := 2.0
	if v := r.URL.Query().Get("seconds"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			telemetry.WriteError(w, http.StatusBadRequest, "bad seconds %q", v)
			return
		}
		secs = f
	}
	secs = min(max(secs, 0.05), 30)

	if !s.profiling.CompareAndSwap(false, true) {
		telemetry.WriteError(w, http.StatusConflict, "a profile capture is already running")
		return
	}
	defer s.profiling.Store(false)

	if r.URL.Query().Get("during") == "render" {
		overlap := "none"
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if len(s.sem) > 0 {
				overlap = "in-flight"
				break
			}
			select {
			case <-r.Context().Done():
				telemetry.WriteError(w, 499, "client went away")
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
		w.Header().Set("X-Shearwarp-Render-Overlap", overlap)
	}

	firstReq := s.tel.reqSeq.Load() + 1
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		// Another subsystem (a test, an external pprof listener) owns the
		// one CPU profiler slot.
		telemetry.WriteError(w, http.StatusConflict, "cpu profiling unavailable: %v", err)
		return
	}
	select {
	case <-time.After(time.Duration(secs * float64(time.Second))):
	case <-r.Context().Done():
	}
	pprof.StopCPUProfile()
	lastReq := s.tel.reqSeq.Load()

	if lastReq >= firstReq {
		w.Header().Set("X-Shearwarp-Render-Reqs", fmt.Sprintf("%d-%d", firstReq, lastReq))
		if id := s.slowestTraceIn(firstReq, lastReq); id != 0 {
			w.Header().Set("X-Shearwarp-Slow-Trace", fmt.Sprintf("/debug/spans?id=%d", id))
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="shearwarpd-cpu.pprof"`)
	w.Write(buf.Bytes())
}

// slowestTraceIn returns the ID of the slowest retained trace whose
// request ID falls in [lo, hi], or 0.
func (s *Server) slowestTraceIn(lo, hi uint64) uint64 {
	if s.tel.tracer == nil {
		return 0
	}
	var id uint64
	var worst int64 = -1
	for _, tr := range s.tel.tracer.Traces() {
		if tr.ID >= lo && tr.ID <= hi && tr.DurNS > worst {
			worst, id = tr.DurNS, tr.ID
		}
	}
	return id
}
