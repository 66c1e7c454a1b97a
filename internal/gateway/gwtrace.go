package gateway

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"shearwarp/internal/telemetry"
)

// Gateway-side span tracing: the same pooled FrameSpans machinery the
// backends run in their render workers, recording the gateway's routing
// work instead — pick, backoff, breaker transitions, hedge arming, and
// each attempt's connect/first-byte/body phases. Spans land on lanes by
// role: the request lane (worker -1) carries the policy events, and
// each attempt records on worker = its ordinal, so a hedged request
// shows its racing attempts on separate rows like the paper's Figure
// 5/6 shows racing render workers.
//
// Lifetime is the hard part: a hedge loser's goroutine outlives the
// proxy loop (it drains its cancelled attempt in the background), so
// the trace cannot be finalized when the handler returns — the loser
// would record into a recorder already back in the pool. gwTrace is
// reference-counted instead: the handler holds one reference and every
// launched attempt holds one; whoever releases last builds the Trace,
// hands it to the tracer ring, and returns the recorder to the pool.
type gwTrace struct {
	g       *Gateway
	id      uint64
	label   string
	startNS int64
	spans   *telemetry.FrameSpans

	mu       sync.Mutex
	attempts []telemetry.AttemptRef

	pending atomic.Int32 // handler ref + one per launched attempt
	status  atomic.Int32 // stored by finish before the handler's release
	durNS   atomic.Int64
}

// startGwTrace begins tracing one proxied request; nil when tracing is
// disabled (Config.TraceRing < 0), and every gwTrace method is nil-safe
// so the disabled path stays branch-and-allocation free.
func (g *Gateway) startGwTrace(id uint64, label string, t0 time.Time) *gwTrace {
	if g.tracer == nil {
		return nil
	}
	fs := g.spanPool.Get().(*telemetry.FrameSpans)
	fs.Reset(g.epoch)
	t := &gwTrace{g: g, id: id, label: label, startNS: t0.Sub(g.epoch).Nanoseconds(), spans: fs}
	t.pending.Store(1)
	return t
}

// sinceEpochNS converts an instant to the gateway trace timeline.
func (t *gwTrace) sinceEpochNS(at time.Time) int64 {
	return at.Sub(t.g.epoch).Nanoseconds()
}

// span records one request-lane policy span. Nil-safe.
func (t *gwTrace) span(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.spans.Record(-1, name, telemetry.CatRequest, start, d)
}

// attemptSpan records one span on an attempt's lane. Nil-safe.
func (t *gwTrace) attemptSpan(ordinal int, name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.spans.Record(ordinal, name, telemetry.CatBusy, start, d)
}

// event records a zero-duration request-lane marker. Nil-safe.
func (t *gwTrace) event(name string, at time.Time) {
	if t == nil {
		return
	}
	t.spans.Record(-1, name, telemetry.CatRequest, at, 0)
}

// retain adds one reference for a launched attempt. Nil-safe.
func (t *gwTrace) retain() {
	if t == nil {
		return
	}
	t.pending.Add(1)
}

// release drops one reference; the last one publishes. Nil-safe.
func (t *gwTrace) release() {
	if t == nil {
		return
	}
	if t.pending.Add(-1) == 0 {
		t.publish()
	}
}

// addAttempt records the launch half of an AttemptRef. Nil-safe.
func (t *gwTrace) addAttempt(ref telemetry.AttemptRef) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.attempts = append(t.attempts, ref)
	t.mu.Unlock()
}

// amendAttempt updates the attempt with the given ordinal (receive
// time, status, class, cancellation) after its goroutine finished.
// Nil-safe.
func (t *gwTrace) amendAttempt(ordinal int, fn func(*telemetry.AttemptRef)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for i := range t.attempts {
		if t.attempts[i].Ordinal == ordinal {
			fn(&t.attempts[i])
			break
		}
	}
	t.mu.Unlock()
}

// finish stores the request's final status and duration and drops the
// handler's reference. Hedge losers still in flight keep the trace
// alive until their spans are in. Nil-safe.
func (t *gwTrace) finish(status int, now time.Time) {
	if t == nil {
		return
	}
	t.status.Store(int32(status))
	t.durNS.Store(t.sinceEpochNS(now) - t.startNS)
	t.release()
}

// publish builds the Trace, hands it to the tracer, and recycles the
// recorder. Runs exactly once, on whichever goroutine released last; by
// then no goroutine can record or amend, so reading the recorder and
// giving the attempts away is safe.
func (t *gwTrace) publish() {
	spans := t.spans.Spans()
	tr := &telemetry.Trace{
		ID:       t.id,
		Label:    t.label,
		StartNS:  t.startNS,
		DurNS:    t.durNS.Load(),
		Status:   int(t.status.Load()),
		Dropped:  t.spans.Dropped(),
		Spans:    append(t.g.tracer.SpanBuf(len(spans)), spans...),
		Attempts: t.attempts, // every attempt has released: nothing amends them now
	}
	t.g.spanPool.Put(t.spans)
	t.spans = nil
	t.g.tracer.Add(tr)
}

// handleSpans is GET /debug/spans on the gateway: the retained gateway
// traces as Chrome trace-event JSON, same interface as the backends'.
// ?id=N restricts to one trace, ?format=raw returns plain JSON (the
// form fleet tooling consumes), ?view=timeline renders text bars.
func (g *Gateway) handleSpans(w http.ResponseWriter, r *http.Request) {
	if g.tracer == nil {
		writeJSONError(w, http.StatusNotFound, "span tracing disabled")
		return
	}
	var traces []*telemetry.Trace
	if v := r.URL.Query().Get("id"); v != "" {
		id, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad id %q", v))
			return
		}
		traces = g.tracer.FindAll(id)
		if len(traces) == 0 {
			writeJSONError(w, http.StatusNotFound, fmt.Sprintf("no retained trace with id %d", id))
			return
		}
	} else {
		traces = g.tracer.Traces()
	}
	switch {
	case r.URL.Query().Get("view") == "timeline":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, tr := range traces {
			fmt.Fprintln(w, telemetry.Timeline(tr))
		}
	case r.URL.Query().Get("format") == "raw":
		writeJSONIndent(w, traces)
	default:
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := telemetry.WriteChromeTrace(w, traces); err != nil {
			g.log.Warn("span export failed", "err", err)
		}
	}
}
