package gateway

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"shearwarp/internal/server"
	"shearwarp/internal/telemetry"
)

// Error classes the gateway itself assigns to attempt outcomes (the
// backend's typed classes from server.ErrorClassHeader pass through).
const (
	classTransport = "transport" // connect refused/reset, no response
	classTruncated = "truncated" // backend died mid-stream
	classCanceled  = "canceled"  // our own cancellation (hedge loser, budget)
	classDeadline  = "deadline"  // backend 504: the forwarded budget lapsed
	classShed      = "shed"      // backend 503: admission shed / draining
	classNoBackend = "no-backend"
	classTooLarge  = "too-large"
)

// bufferedResponse is a fully-buffered backend response. Buffering is
// the retry contract: the gateway never writes a client byte until the
// whole frame has arrived, so a backend dying mid-stream is a clean
// retryable failure instead of a corrupt half-written image.
type bufferedResponse struct {
	status int
	header http.Header
	body   []byte
	buf    *[]byte // the pooled buffer body lives in; nil for a body of undeclared length
}

// bodyPool recycles the buffers backend bodies of declared length are
// read into (*[]byte). A buffer has one owner at a time: the attempt that
// took it, then the bufferedResponse that carries it from the attempt
// through the proxy loop to the handler, and whoever holds the response
// when it turns out nobody will read it gives the buffer back — the
// handler after its Write, the proxy loop for failures it replaces and
// for results it never collected, the attempt for a body it rejects.
var bodyPool sync.Pool

// takeBody returns a pooled buffer of length n.
func (g *Gateway) takeBody(n int) *[]byte {
	buf, _ := bodyPool.Get().(*[]byte)
	if buf == nil {
		buf = new([]byte)
	}
	if cap(*buf) < n {
		// Power-of-two capacities, so that bodies of mixed sizes settle on
		// buffers any of them fits in.
		*buf = make([]byte, n, 1<<bits.Len(uint(n-1)))
	}
	*buf = (*buf)[:n]
	if g.bodyHook != nil {
		g.bodyHook(+1, *buf)
	}
	return buf
}

// putBody gives a buffer from takeBody back. Nil-safe.
func (g *Gateway) putBody(buf *[]byte) {
	if buf == nil {
		return
	}
	if g.bodyHook != nil {
		g.bodyHook(-1, *buf)
	}
	bodyPool.Put(buf)
}

// release gives the response's buffer back; its body must not be read
// afterwards. Nil-safe, and a second release is a no-op.
func (g *Gateway) release(resp *bufferedResponse) {
	if resp == nil {
		return
	}
	g.putBody(resp.buf)
	resp.buf, resp.body = nil, nil
}

// attemptResult is one attempt's outcome.
type attemptResult struct {
	b         *backend
	ordinal   int // attempt launch order within the request (0 = first)
	hedged    bool
	resp      *bufferedResponse // nil on transport-level failure
	err       error
	class     string  // error class ("" on success)
	retryable bool    // would another attempt plausibly succeed?
	breakOut  outcome // what this attempt proved about the backend
	dur       time.Duration
}

// proxyResult is what the policy hands back to the HTTP handler.
type proxyResult struct {
	resp      *bufferedResponse // nil -> synthesize errStatus/errMsg
	backend   string
	backends  []string // every backend an attempt was launched against, in order
	attempts  int
	hedgedWin bool
	errStatus int
	errMsg    string
	errClass  string
}

// affinityKey is the consistent-hash routing key: exactly the query
// parameters that select a preprocessing-cache entry on the backend
// (volume, transfer function, render mode, iso threshold). Camera
// angles and output format deliberately excluded — every view of one
// volume should land on the shard whose cache holds that volume.
func affinityKey(q url.Values) string {
	return q.Get("volume") + "|" + q.Get("transfer") + "|" + q.Get("mode") + "|" + q.Get("iso")
}

// handleRender proxies one render through the resilience policy.
func (g *Gateway) handleRender(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if g.draining.Load() {
		w.Header().Set("Retry-After", "5")
		telemetry.WriteError(w, http.StatusServiceUnavailable, "gateway draining")
		return
	}
	g.inflight.Add(1)
	defer g.inflight.Done()

	// Mint the fleet trace ID: the one identity every attempt forwards,
	// every backend adopts, and every log line on every process carries.
	// It is echoed to the client so a slow response is directly
	// explorable at /debug/trace?id=N.
	id := g.traceBase + g.reqSeq.Add(1)
	t0 := time.Now()
	q := r.URL.Query()
	key := affinityKey(q)
	log := g.log.With("trace", id)
	w.Header().Set(server.TraceHeader, strconv.FormatUint(id, 10))

	// Budget: client header wins, then a budget= query parameter, then
	// the configured default. The whole policy — attempts, backoffs,
	// hedges — runs inside this one deadline.
	budget := g.cfg.DefaultBudget
	if v := r.Header.Get(server.BudgetHeader); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
			budget = time.Duration(ms) * time.Millisecond
		}
	} else if v := q.Get("budget"); v != "" {
		// Bare integers are milliseconds, matching the wire header;
		// Go duration strings ("1.5s") also work.
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
			budget = time.Duration(ms) * time.Millisecond
		} else if d, err := time.ParseDuration(v); err == nil && d > 0 {
			budget = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()

	tr := g.startGwTrace(id, "gw render "+key, t0)
	res := g.proxy(ctx, key, backendPath(q), id, tr, log)
	defer g.release(res.resp) // after the Write below has returned
	g.requests.Add(1)

	w.Header().Set("X-Shearwarp-Attempts", strconv.Itoa(res.attempts))
	if res.backend != "" {
		w.Header().Set("X-Shearwarp-Backend", res.backend)
	}
	if res.hedgedWin {
		w.Header().Set("X-Shearwarp-Hedged", "1")
	}
	backends := strings.Join(res.backends, ",")
	if res.resp == nil {
		if res.errStatus == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		if res.errClass != "" {
			w.Header().Set(server.ErrorClassHeader, res.errClass)
		}
		telemetry.WriteError(w, res.errStatus, "%s", res.errMsg)
		tr.finish(res.errStatus, time.Now())
		log.Warn("render failed", "status", res.errStatus, "class", res.errClass,
			"affinity", key, "attempts", res.attempts, "backends", backends,
			"elapsed_ms", time.Since(t0).Milliseconds())
		return
	}
	// Pass the backend's response through verbatim: for a 2xx this is
	// the byte-identity contract, for an error it preserves the typed
	// class and Retry-After hint the backend chose.
	for _, h := range []string{"Content-Type", "Retry-After", server.ErrorClassHeader} {
		if v := res.resp.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(res.resp.body)))
	w.WriteHeader(res.resp.status)
	if r.Method != http.MethodHead {
		w.Write(res.resp.body)
	}
	now := time.Now()
	tr.finish(res.resp.status, now)
	g.refreshHedgeDelay(now)
	if res.resp.status >= 200 && res.resp.status < 300 {
		g.successes.Add(1)
		g.hRender.Observe(time.Since(t0))
		log.Info("render ok", "backend", res.backend, "affinity", key,
			"attempts", res.attempts, "backends", backends,
			"hedged_win", res.hedgedWin, "bytes", len(res.resp.body),
			"elapsed_ms", time.Since(t0).Milliseconds())
	} else {
		log.Warn("render failed upstream", "backend", res.backend, "status", res.resp.status,
			"class", res.resp.header.Get(server.ErrorClassHeader),
			"affinity", key, "attempts", res.attempts, "backends", backends,
			"elapsed_ms", time.Since(t0).Milliseconds())
	}
}

// backendPath is the path and query every attempt of a request sends: the
// client's query minus budget=, which is the gateway's own parameter and
// no part of the backend contract. It consumes q.
func backendPath(q url.Values) string {
	q.Del("budget")
	if enc := q.Encode(); enc != "" {
		return "/render?" + enc
	}
	return "/render"
}

// proxy runs the resilience policy for one request: pick the affinity
// backend, retry retryable failures elsewhere with jittered backoff,
// hedge the tail, first success wins. When tracing is on (tr non-nil)
// the policy's own work — picks, backoffs, hedge and breaker events —
// lands on the trace's request lane, and each attempt records its
// phases on its ordinal's lane. The caller releases out.resp; every other
// response an attempt buffered is released here.
func (g *Gateway) proxy(ctx context.Context, key, path string, id uint64, tr *gwTrace, log logger) (out proxyResult) {
	order := g.ring.order(key)
	tried := make([]bool, len(g.backends))
	results := make(chan *attemptResult, g.cfg.MaxAttempts+1)
	actx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	// An attempt can finish after the loop below has returned (a hedge
	// loser, a retry the budget cut short). over, under handMu, tells it
	// that nobody will collect its result, so it releases its own body;
	// what was handed over before that is drained here.
	var handMu sync.Mutex
	over := false
	var last *attemptResult
	defer func() {
		handMu.Lock()
		over = true
		handMu.Unlock()
		for drained := false; !drained; {
			select {
			case res := <-results:
				g.release(res.resp)
			default:
				drained = true
			}
		}
		if last != nil && last.resp != out.resp {
			g.release(last.resp)
		}
	}()

	launched, inFlight, retries := 0, 0, 0
	var triedURLs []string

	// pickWaits bounds how often a request with nothing in flight may
	// sleep out a backoff waiting for SOME backend to become eligible
	// again (breaker cooldown lapsing, health probe succeeding). This
	// is what turns a transient whole-fleet lockout — every breaker
	// open at once — into a short stall instead of a burst of instant
	// no-backend failures.
	const maxPickWaits = 8
	pickWaits := 0

	launch := func(hedged, isRetry bool) bool {
		pickAt := time.Now()
		b, done, ok := g.pick(order, tried, isRetry)
		if !ok {
			return false
		}
		tried[b.idx] = true
		ordinal := launched
		launched++
		inFlight++
		triedURLs = append(triedURLs, b.url)
		b.inflight.Add(1)
		b.requests.Add(1)
		if isRetry {
			b.retries.Add(1)
			g.retried.Add(1)
		}
		if hedged {
			b.hedges.Add(1)
			g.hedged.Add(1)
		}
		if tr != nil {
			now := time.Now()
			tr.span("pick", pickAt, now.Sub(pickAt))
			tr.retain() // the attempt's reference; released after its amend
			tr.addAttempt(telemetry.AttemptRef{
				Ordinal: ordinal, Backend: b.url, Hedged: hedged, Retry: isRetry,
				SendNS: telemetry.SinceEpoch(now),
			})
		}
		g.inflight.Add(1)
		go func() {
			defer g.inflight.Done()
			res := g.attempt(actx, path, b, id, ordinal, hedged, tr)
			b.inflight.Add(-1)
			prior := b.breaker.State()
			done(res.breakOut)
			if tr != nil {
				now := time.Now()
				if st := b.breaker.State(); st != prior {
					tr.event("breaker "+b.url+" "+prior.String()+"->"+st.String(), now)
				}
				tr.amendAttempt(ordinal, func(a *telemetry.AttemptRef) {
					a.RecvNS = telemetry.SinceEpoch(now)
					a.Class = res.class
					a.Canceled = res.class == classCanceled
					if res.resp != nil {
						a.Status = res.resp.status
					}
				})
				tr.release()
			}
			if res.class != "" && res.class != classCanceled {
				b.failures.Add(1)
				log.Warn("attempt failed", "backend", b.url, "attempt", ordinal,
					"class", res.class, "hedged", hedged, "retry", isRetry,
					"err", errString(res.err))
			}
			handMu.Lock()
			if over {
				g.release(res.resp)
			} else {
				results <- res // buffered for every attempt a request can launch
			}
			handMu.Unlock()
		}()
		return true
	}

	var backoffT *time.Timer
	var backoffC <-chan time.Time
	var backoffAt time.Time
	defer func() {
		if backoffT != nil {
			backoffT.Stop()
		}
	}()
	armBackoff := func() {
		backoffT = time.NewTimer(g.jitter(retries))
		backoffC = backoffT.C
		backoffAt = time.Now()
		retries++
	}

	if !launch(false, false) {
		pickWaits++
		armBackoff()
	}

	// The hedge timer arms once, at the learned tail-latency quantile:
	// if the first attempt is still running when it fires, a second
	// attempt races it on another backend.
	var hedgeC <-chan time.Time
	if g.cfg.HedgeQuantile >= 0 && g.cfg.MaxAttempts > 1 && len(g.backends) > 1 {
		ht := time.NewTimer(g.hedgeDelay())
		defer ht.Stop()
		hedgeC = ht.C
	}

	for {
		select {
		case res := <-results:
			inFlight--
			if res.resp != nil && res.resp.status >= 200 && res.resp.status < 300 {
				if tr != nil && inFlight > 0 {
					tr.event("cancel-losers", time.Now())
				}
				cancelAll()
				if res.hedged {
					res.b.hedgeWins.Add(1)
					g.hedgeWins.Add(1)
				}
				return proxyResult{resp: res.resp, backend: res.b.url,
					backends: triedURLs, attempts: launched, hedgedWin: res.hedged}
			}
			if res.class == classCanceled {
				// A hedge loser or budget casualty; it decides nothing.
				if inFlight == 0 && backoffC == nil {
					return g.finalFailure(last, launched, triedURLs)
				}
				continue
			}
			if last != nil {
				g.release(last.resp)
			}
			last = res
			if !res.retryable {
				cancelAll()
				return g.finalFailure(res, launched, triedURLs)
			}
			if launched < g.cfg.MaxAttempts && backoffC == nil {
				armBackoff()
			} else if inFlight == 0 && backoffC == nil {
				g.exhausted.Add(1)
				return g.finalFailure(last, launched, triedURLs)
			}

		case <-backoffC:
			backoffC = nil
			if tr != nil {
				tr.span("backoff", backoffAt, time.Since(backoffAt))
			}
			if !launch(false, launched > 0) && inFlight == 0 {
				if pickWaits < maxPickWaits {
					pickWaits++
					armBackoff()
					continue
				}
				return g.finalFailure(last, launched, triedURLs)
			}

		case <-hedgeC:
			hedgeC = nil
			if inFlight >= 1 && launched < g.cfg.MaxAttempts {
				if tr != nil {
					tr.event("hedge-fire", time.Now())
				}
				launch(true, false)
			}

		case <-ctx.Done():
			cancelAll()
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				return proxyResult{errStatus: http.StatusGatewayTimeout,
					errMsg: "render budget exhausted", errClass: classDeadline,
					attempts: launched, backends: triedURLs}
			}
			return proxyResult{errStatus: 499, errMsg: "client closed request",
				errClass: classCanceled, attempts: launched, backends: triedURLs}
		}
	}
}

// finalFailure shapes the last failed attempt into the client-facing
// result: pass a buffered backend error through, or synthesize a 502.
func (g *Gateway) finalFailure(res *attemptResult, attempts int, backends []string) proxyResult {
	if res == nil {
		g.noBackend.Add(1)
		return proxyResult{errStatus: http.StatusServiceUnavailable,
			errMsg: "no ready backend", errClass: classNoBackend,
			attempts: attempts, backends: backends}
	}
	if res.resp != nil {
		return proxyResult{resp: res.resp, backend: res.b.url, attempts: attempts,
			backends: backends, errClass: res.class}
	}
	return proxyResult{errStatus: http.StatusBadGateway,
		errMsg:   fmt.Sprintf("backend %s: %v", res.b.url, res.err),
		errClass: res.class, backend: res.b.url, attempts: attempts, backends: backends}
}

// pick selects the next backend for an attempt in the key's ring order:
// first an untried, healthy, breaker-admitted backend within the
// bounded-load cap; then untried ignoring the load bound; then — for
// retries only — already-tried backends, so a lone backend still gets
// its shed 503s retried. Allow is only called on a backend we will
// actually use (in half-open it reserves the probe slot), and its done
// callback travels with the attempt.
func (g *Gateway) pick(order []int, tried []bool, allowTried bool) (*backend, func(outcome), bool) {
	type pass struct{ skipTried, bounded bool }
	passes := []pass{{true, true}, {true, false}}
	if allowTried {
		passes = append(passes, pass{false, false})
	}
	now := time.Now()
	for _, p := range passes {
		for _, bi := range order {
			if p.skipTried && tried[bi] {
				continue
			}
			b := g.backends[bi]
			if !b.healthy.Load() {
				continue
			}
			if p.bounded && g.overloaded(b) {
				continue
			}
			if done, ok := b.breaker.Allow(now); ok {
				return b, done, true
			}
		}
	}
	return nil, nil, false
}

// overloaded applies the bounded-load rule: admitting one more request
// must not push the backend past ceil(c * (total+1) / healthy).
func (g *Gateway) overloaded(b *backend) bool {
	var total int64
	n := 0
	for _, x := range g.backends {
		if x.healthy.Load() {
			total += x.inflight.Load()
			n++
		}
	}
	if n <= 1 {
		return false
	}
	limit := int64(g.cfg.LoadFactor * float64(total+1) / float64(n))
	if float64(limit) < g.cfg.LoadFactor*float64(total+1)/float64(n) {
		limit++ // ceil
	}
	return b.inflight.Load()+1 > limit
}

// attempt runs one proxied request against one backend and classifies
// the outcome: what the client should see, whether a retry could help,
// and what the attempt proved about the backend's health. When tracing
// is on the attempt's connect/first-byte/body phases land on its
// ordinal's lane via httptrace (only attached when tr is non-nil, so
// the disabled path allocates nothing extra).
func (g *Gateway) attempt(ctx context.Context, path string, b *backend, id uint64, ordinal int, hedged bool, tr *gwTrace) *attemptResult {
	res := &attemptResult{b: b, ordinal: ordinal, hedged: hedged}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+path, nil)
	if err != nil {
		res.err, res.class, res.breakOut = err, classTransport, outcomeSuccess
		return res
	}
	// Propagate the fleet trace context: the backend adopts the trace ID
	// as its own request identity and labels its span set with the
	// attempt ordinal, which is what lets the stitcher match each
	// gateway attempt to the backend trace that served it. The gateway
	// request header carries the same ID for log continuity, and the
	// remaining budget is forwarded so the backend gives up when the
	// client stops waiting, not at its own configured timeout.
	req.Header.Set(server.TraceHeader, strconv.FormatUint(id, 10))
	req.Header.Set(server.AttemptHeader, strconv.Itoa(ordinal))
	req.Header.Set(server.GatewayRequestHeader, strconv.FormatUint(id, 10))
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(server.BudgetHeader, strconv.FormatInt(ms, 10))
	}

	t0 := time.Now()
	if tr != nil {
		// The transport can still call back after Do has returned a
		// cancelled attempt; once closed is set, late callbacks record
		// nothing — the trace may already be published.
		var mu sync.Mutex
		closed := false
		var connStart, gotConn, firstByte time.Time
		ct := &httptrace.ClientTrace{
			GetConn: func(string) {
				mu.Lock()
				connStart = time.Now()
				mu.Unlock()
			},
			GotConn: func(httptrace.GotConnInfo) {
				mu.Lock()
				defer mu.Unlock()
				if closed {
					return
				}
				gotConn = time.Now()
				if !connStart.IsZero() {
					tr.attemptSpan(ordinal, "connect", connStart, gotConn.Sub(connStart))
				}
			},
			GotFirstResponseByte: func() {
				mu.Lock()
				defer mu.Unlock()
				if closed {
					return
				}
				firstByte = time.Now()
				from := gotConn
				if from.IsZero() {
					from = t0
				}
				tr.attemptSpan(ordinal, "first-byte", from, firstByte.Sub(from))
			},
		}
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), ct))
		defer func() {
			mu.Lock()
			defer mu.Unlock()
			closed = true
			end := time.Now()
			if !firstByte.IsZero() {
				tr.attemptSpan(ordinal, "body", firstByte, end.Sub(firstByte))
			}
			tr.attemptSpan(ordinal, fmt.Sprintf("attempt %d %s", ordinal, b.url), t0, end.Sub(t0))
		}()
	}
	resp, err := g.client.Do(req)
	if err != nil {
		res.err, res.dur = err, time.Since(t0)
		if ctx.Err() != nil {
			res.class, res.retryable, res.breakOut = classCanceled, false, outcomeAbandon
		} else {
			res.class, res.retryable, res.breakOut = classTransport, true, outcomeFailure
		}
		return res
	}
	body, buf, rerr := g.readBody(resp)
	resp.Body.Close()
	res.dur = time.Since(t0)
	defer func() {
		if res.resp == nil {
			g.putBody(buf) // rejected below: nobody will read it
		}
	}()
	if rerr != nil {
		res.err = rerr
		if ctx.Err() != nil {
			res.class, res.retryable, res.breakOut = classCanceled, false, outcomeAbandon
		} else {
			res.class, res.retryable, res.breakOut = classTruncated, true, outcomeFailure
		}
		return res
	}
	if int64(len(body)) > g.cfg.MaxBodyBytes {
		res.err = fmt.Errorf("response exceeds %d byte buffer cap", g.cfg.MaxBodyBytes)
		res.class, res.retryable, res.breakOut = classTooLarge, false, outcomeSuccess
		return res
	}
	// A short body on a response that declared its length is the same
	// mid-stream death as a read error (Go surfaces most as
	// ErrUnexpectedEOF, but a fault injector can close cleanly).
	if resp.ContentLength >= 0 && int64(len(body)) != resp.ContentLength {
		res.err = fmt.Errorf("truncated body: %d of %d bytes", len(body), resp.ContentLength)
		res.class, res.retryable, res.breakOut = classTruncated, true, outcomeFailure
		return res
	}
	res.resp = &bufferedResponse{status: resp.StatusCode, header: resp.Header, body: body, buf: buf}
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		res.breakOut = outcomeSuccess
		g.hAttempt.Observe(res.dur)
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		// The request's own fault; the backend is fine.
		res.class, res.retryable, res.breakOut = "client-error", false, outcomeSuccess
	case resp.StatusCode == http.StatusGatewayTimeout:
		// The forwarded budget lapsed inside the backend: a retry gets
		// an even smaller budget, so don't.
		res.class, res.retryable, res.breakOut = classDeadline, false, outcomeFailure
	default: // 5xx
		class := resp.Header.Get(server.ErrorClassHeader)
		switch {
		case class == server.ErrClassBuildFailure:
			// Deterministic: the volume cannot be built. Every backend
			// would fail identically — single attempt, pass through.
			res.class, res.retryable, res.breakOut = class, false, outcomeSuccess
		case resp.StatusCode == http.StatusServiceUnavailable:
			if class == "" {
				class = classShed
			}
			res.class, res.retryable, res.breakOut = class, true, outcomeFailure
		default:
			// Typed transients (frame-panic, watchdog-stall), untyped
			// 5xx, 502s: worth one more try elsewhere.
			if class == "" {
				class = "upstream-" + strconv.Itoa(resp.StatusCode)
			}
			res.class, res.retryable, res.breakOut = class, true, outcomeFailure
		}
	}
	return res
}

// readBody buffers a backend response body, reading at most
// MaxBodyBytes+1 bytes. A response that declares its length (every render
// body does) is read into one pooled buffer of that size, returned as buf
// for the caller to put back, on every path, once the body has been used;
// a body that ends early comes back short without an error, for the
// caller's length check to report as a truncation. Only a body of
// undeclared length grows through io.ReadAll, and has no buf.
func (g *Gateway) readBody(resp *http.Response) (body []byte, buf *[]byte, err error) {
	limit := g.cfg.MaxBodyBytes
	if resp.ContentLength < 0 || resp.ContentLength > limit {
		body, err = io.ReadAll(io.LimitReader(resp.Body, limit+1))
		return body, nil, err
	}
	buf = g.takeBody(int(resp.ContentLength))
	n, err := io.ReadFull(resp.Body, *buf)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil
	}
	return (*buf)[:n], buf, err
}

// logger is the slice of *slog.Logger the proxy needs (lets tests pass
// a plain logger without caring about handler setup).
type logger interface {
	Info(msg string, args ...any)
	Warn(msg string, args ...any)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
