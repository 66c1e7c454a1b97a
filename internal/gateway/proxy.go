package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"strconv"
	"strings"
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
		writeJSONError(w, http.StatusServiceUnavailable, "gateway draining")
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
	key := affinityKey(r.URL.Query())
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
	} else if v := r.URL.Query().Get("budget"); v != "" {
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
	res := g.proxy(ctx, r, id, tr, log)
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
		writeJSONError(w, res.errStatus, res.errMsg)
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
	tr.finish(res.resp.status, time.Now())
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

// proxy runs the resilience policy for one request: pick the affinity
// backend, retry retryable failures elsewhere with jittered backoff,
// hedge the tail, first success wins. When tracing is on (tr non-nil)
// the policy's own work — picks, backoffs, hedge and breaker events —
// lands on the trace's request lane, and each attempt records its
// phases on its ordinal's lane.
func (g *Gateway) proxy(ctx context.Context, r *http.Request, id uint64, tr *gwTrace, log logger) proxyResult {
	order := g.ring.order(affinityKey(r.URL.Query()))
	tried := make([]bool, len(g.backends))
	results := make(chan *attemptResult, g.cfg.MaxAttempts+1)
	actx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

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
				SendNS: tr.sinceEpochNS(now),
			})
		}
		g.inflight.Add(1)
		go func() {
			defer g.inflight.Done()
			res := g.attempt(actx, r, b, id, ordinal, hedged, tr)
			b.inflight.Add(-1)
			prior := b.breaker.State()
			done(res.breakOut)
			if tr != nil {
				now := time.Now()
				if st := b.breaker.State(); st != prior {
					tr.event("breaker "+b.url+" "+prior.String()+"->"+st.String(), now)
				}
				tr.amendAttempt(ordinal, func(a *telemetry.AttemptRef) {
					a.RecvNS = tr.sinceEpochNS(now)
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
			results <- res
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

	var last *attemptResult
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
func (g *Gateway) attempt(ctx context.Context, r *http.Request, b *backend, id uint64, ordinal int, hedged bool, tr *gwTrace) *attemptResult {
	res := &attemptResult{b: b, ordinal: ordinal, hedged: hedged}
	q := r.URL.Query()
	q.Del("budget") // gateway-level; not part of the backend contract
	u := b.url + "/render"
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
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
		var connStart, gotConn, firstByte time.Time
		ct := &httptrace.ClientTrace{
			GetConn: func(string) { connStart = time.Now() },
			GotConn: func(httptrace.GotConnInfo) {
				gotConn = time.Now()
				if !connStart.IsZero() {
					tr.attemptSpan(ordinal, "connect", connStart, gotConn.Sub(connStart))
				}
			},
			GotFirstResponseByte: func() {
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
	body, rerr := readBody(resp, g.cfg.MaxBodyBytes)
	resp.Body.Close()
	res.dur = time.Since(t0)
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
	res.resp = &bufferedResponse{status: resp.StatusCode, header: resp.Header, body: body}
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

// readBody buffers a backend response body, reading at most limit+1
// bytes. A response that declares its length (every render body does) is
// read into one buffer of that size; a body that ends early comes back
// short without an error, for the caller's length check to report as a
// truncation. Only a body of undeclared length grows through io.ReadAll.
func readBody(resp *http.Response, limit int64) ([]byte, error) {
	if resp.ContentLength < 0 || resp.ContentLength > limit {
		return io.ReadAll(io.LimitReader(resp.Body, limit+1))
	}
	body := make([]byte, resp.ContentLength)
	n, err := io.ReadFull(resp.Body, body)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil
	}
	return body[:n], err
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

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
