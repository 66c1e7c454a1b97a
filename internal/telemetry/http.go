package telemetry

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
)

// The HTTP half of the ops plane both daemons mount: the JSON and error
// writers every ops endpoint answers with, /metrics content negotiation,
// and /debug/spans. The dashboard shell is in dash.go.

// WriteJSON answers status with v as indented JSON under an explicit
// Content-Type, logging (it is too late to re-status) any encode or write
// failure.
func WriteJSON(w http.ResponseWriter, status int, v any, log *slog.Logger) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Warn("response encoding failed", "err", err)
	}
}

// WriteError answers status with the JSON body {"error": message}.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// ServeMetrics answers a /metrics request: the text exposition prom
// writes for a Prometheus scraper, the JSON document doc returns for
// everyone else.
func ServeMetrics(w http.ResponseWriter, r *http.Request, log *slog.Logger, doc func() any, prom func(*PromWriter)) {
	if !acceptsPromText(r.Header.Get("Accept")) {
		WriteJSON(w, http.StatusOK, doc(), log)
		return
	}
	w.Header().Set("Content-Type", PromContentType)
	pw := newPromWriter(w)
	prom(pw)
	if err := pw.Err(); err != nil {
		// Headers are long gone; all we can do is log the broken scrape.
		log.Warn("metrics exposition failed", "err", err)
	}
}

// acceptsPromText reports whether an Accept header asks for the
// Prometheus text format. Scrapers send text/plain with a version
// parameter (or an OpenMetrics type); a JSON-preferring or absent Accept
// keeps the JSON default.
func acceptsPromText(accept string) bool {
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

// SpansHandler serves GET /debug/spans from t's retained traces, 404 when
// t is nil (traces not retained). The default answer is Chrome
// trace-event JSON (chrome://tracing, ui.perfetto.dev). ?id=N restricts
// it to one trace ID — every retained trace under it, since a backend can
// serve both the first try and a retry of one fleet request; ?format=raw
// returns the traces as plain JSON (the form the gateway's stitcher
// consumes); ?view=timeline renders the paper's Figure 5/6 per-worker
// busy/sync/imbalance bars as text.
func SpansHandler(t *Tracer, log *slog.Logger) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if t == nil {
			WriteError(w, http.StatusNotFound, "span tracing disabled")
			return
		}
		q := r.URL.Query()
		var traces []*Trace
		if v := q.Get("id"); v == "" {
			traces = t.Traces()
		} else if id, err := strconv.ParseUint(v, 10, 64); err != nil {
			WriteError(w, http.StatusBadRequest, "bad id %q", v)
			return
		} else if traces = t.findAll(id); len(traces) == 0 {
			WriteError(w, http.StatusNotFound, "no retained trace with id %d", id)
			return
		}
		switch {
		case q.Get("view") == "timeline":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, tr := range traces {
				fmt.Fprintln(w, Timeline(tr))
			}
		case q.Get("format") == "raw":
			WriteJSON(w, http.StatusOK, traces, log)
		default:
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			if err := WriteChromeTrace(w, traces); err != nil {
				log.Warn("span export failed", "err", err)
			}
		}
	}
}
