package gateway

import (
	"sync"
	"sync/atomic"
	"time"

	"shearwarp/internal/telemetry"
)

// Gateway-side span tracing: the same pooled FrameSpans machinery the
// backends run for their requests, recording the gateway's routing
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
// launched attempt holds one; whoever releases last captures the Trace
// (which recycles the recorder) and hands it to the tracer ring.
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
	t := &gwTrace{g: g, id: id, label: label, startNS: telemetry.SinceEpoch(t0), spans: telemetry.GetSpans()}
	t.pending.Store(1)
	return t
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
	t.durNS.Store(telemetry.SinceEpoch(now) - t.startNS)
	t.release()
}

// publish captures the Trace, recycling the recorder, and hands it to the
// tracer. Runs exactly once, on whichever goroutine released last; by
// then no goroutine can record or amend, so reading the recorder and
// giving the attempts away is safe.
func (t *gwTrace) publish() {
	t.g.tracer.Add(t.g.tracer.Capture(t.spans, telemetry.Trace{
		ID:       t.id,
		Label:    t.label,
		StartNS:  t.startNS,
		DurNS:    t.durNS.Load(),
		Status:   int(t.status.Load()),
		Attempts: t.attempts, // every attempt has released: nothing amends them now
	}))
	t.spans = nil
}
