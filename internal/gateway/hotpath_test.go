package gateway

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"shearwarp/internal/alloctest"
	"shearwarp/internal/server"
)

// hedgingGateway is a two-backend test gateway with hedging on.
func hedgingGateway(t *testing.T, hedgeMin, hedgeMax time.Duration) (*Gateway, []*fakeBackend) {
	t.Helper()
	backs := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	g := newTestGateway(t, backs, func(c *Config) {
		c.HedgeQuantile = 0.95
		c.HedgeMin = hedgeMin
		c.HedgeMax = hedgeMax
	})
	return g, backs
}

// within reports whether got is want give or take the histogram's bucket
// error.
func within(got, want time.Duration) bool {
	return got >= want && float64(got) <= float64(want)*1.07
}

// TestHedgeDelayCached: hedgeDelay answers from a cache that
// refreshHedgeDelay brings up to date after 32 new observations or 100 ms,
// and keeps the old contract — the ceiling below 32 samples, the quantile
// clamped to [HedgeMin, HedgeMax] after.
func TestHedgeDelayCached(t *testing.T) {
	g, _ := hedgingGateway(t, 5*time.Millisecond, 400*time.Millisecond)
	t0 := time.Now()
	if d := g.hedgeDelay(); d != 400*time.Millisecond {
		t.Fatalf("cold hedge delay = %v, want the 400ms ceiling", d)
	}
	for i := 0; i < 31; i++ {
		g.hAttempt.Observe(50 * time.Millisecond)
	}
	g.refreshHedgeDelay(t0)
	if d := g.hedgeDelay(); d != 400*time.Millisecond {
		t.Fatalf("hedge delay after 31 samples = %v, want the ceiling until 32", d)
	}

	// One more observation is neither 32 new ones nor 100 ms old: the
	// cache may stay stale for now, and must catch up at 100 ms.
	g.hAttempt.Observe(50 * time.Millisecond)
	g.refreshHedgeDelay(t0.Add(99 * time.Millisecond))
	if d := g.hedgeDelay(); d != 400*time.Millisecond {
		t.Fatalf("hedge delay refreshed after 1 observation and 99ms: %v", d)
	}
	g.refreshHedgeDelay(t0.Add(100 * time.Millisecond))
	if d := g.hedgeDelay(); !within(d, 50*time.Millisecond) {
		t.Fatalf("hedge delay 100ms after the 32nd sample = %v, want ~50ms", d)
	}

	// 32 new observations refresh it at once.
	for i := 0; i < 32; i++ {
		g.hAttempt.Observe(200 * time.Millisecond)
	}
	g.refreshHedgeDelay(t0.Add(101 * time.Millisecond))
	if d := g.hedgeDelay(); !within(d, 200*time.Millisecond) {
		t.Fatalf("hedge delay after 32 slower attempts = %v, want ~200ms (p95 of 32x50ms + 32x200ms)", d)
	}

	// The ceiling clamps a slow fleet, the floor a fast one.
	for i := 0; i < 2000; i++ {
		g.hAttempt.Observe(3 * time.Second)
	}
	g.refreshHedgeDelay(t0.Add(102 * time.Millisecond))
	if d := g.hedgeDelay(); d != 400*time.Millisecond {
		t.Fatalf("hedge delay over a 3s fleet = %v, want the 400ms ceiling", d)
	}
	fast, _ := hedgingGateway(t, 5*time.Millisecond, 400*time.Millisecond)
	for i := 0; i < 40; i++ {
		fast.hAttempt.Observe(time.Millisecond)
	}
	fast.refreshHedgeDelay(t0)
	if d := fast.hedgeDelay(); d != 5*time.Millisecond {
		t.Fatalf("hedge delay over a 1ms fleet = %v, want the 5ms floor", d)
	}

	// Neither the read on every request's path nor the refresh allocates.
	var sink time.Duration
	if a := alloctest.PerRun(200, func() { sink += g.hedgeDelay() }); a != 0 {
		t.Errorf("hedgeDelay allocates %.1f times per call, want 0", a)
	}
	at := t0.Add(time.Second)
	if a := alloctest.PerRun(200, func() {
		g.hAttempt.Observe(20 * time.Millisecond)
		at = at.Add(time.Second)
		g.refreshHedgeDelay(at)
	}); a != 0 {
		t.Errorf("refreshHedgeDelay allocates %.1f times per refresh, want 0", a)
	}
	_ = sink
}

// TestHedgeDelayLearnsFromTraffic: the refresh is wired to served
// requests, so a gateway that has proxied enough of them stops hedging at
// the ceiling.
func TestHedgeDelayLearnsFromTraffic(t *testing.T) {
	g, _ := hedgingGateway(t, time.Millisecond, 30*time.Second)
	for i := 0; i < 2*hedgeMinSamples; i++ {
		if resp, body := gwGet(t, g, "/render?volume=mri&yaw="+strconv.Itoa(i)); resp.StatusCode != http.StatusOK {
			t.Fatalf("render %d = %d (%s)", i, resp.StatusCode, body)
		}
	}
	if d := g.hedgeDelay(); d >= time.Second {
		t.Fatalf("hedge delay after %d served requests = %v: the loopback quantile was never learned", 2*hedgeMinSamples, d)
	}
}

// bodyLedger is the test side of Gateway.bodyHook: it knows which pooled
// buffers are out, fails the test when one is taken while still out or put
// back while not, and overwrites every buffer on its way back to the pool,
// so that a reader of a released body reads 0xDB.
type bodyLedger struct {
	t     *testing.T
	mu    sync.Mutex
	out   map[*byte]bool
	taken int
}

func trackBodies(t *testing.T, g *Gateway) *bodyLedger {
	l := &bodyLedger{t: t, out: map[*byte]bool{}}
	g.bodyHook = func(delta int, buf []byte) {
		if cap(buf) == 0 {
			return
		}
		key := &buf[:1][0]
		l.mu.Lock()
		defer l.mu.Unlock()
		switch {
		case delta > 0 && l.out[key]:
			t.Errorf("a body buffer was taken from the pool while its last owner still held it")
		case delta > 0:
			l.out[key] = true
			l.taken++
		case !l.out[key]:
			t.Errorf("a body buffer was released twice")
		default:
			delete(l.out, key)
			for i := range buf {
				buf[i] = 0xDB
			}
		}
	}
	return l
}

// settled waits until every attempt goroutine has finished and reports how
// many buffers were taken; all of them must be back.
func (l *bodyLedger) settled(g *Gateway) int {
	l.t.Helper()
	g.inflight.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.out); n != 0 {
		l.t.Errorf("%d of %d body buffers were never released", n, l.taken)
	}
	return l.taken
}

// frame is a recognisable body of n bytes.
func frame(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag + byte(i%7)
	}
	return b
}

func serveBytes(status int, body []byte, header ...string) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		for i := 0; i+1 < len(header); i += 2 {
			w.Header().Set(header[i], header[i+1])
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(status)
		w.Write(body)
	}
}

// TestPooledBodyLifetime drives every way a buffered backend body can end
// — written to the client, replaced by a later attempt's, left behind by a
// hedge that lost, cut short by the backend — and checks that each buffer
// goes back to the pool exactly once, and only after the client has the
// bytes: the ledger poisons a buffer as it is released, so a body released
// early reaches the client as 0xDB.
func TestPooledBodyLifetime(t *testing.T) {
	t.Run("hedge-loser-completes", func(t *testing.T) {
		g, backs := hedgingGateway(t, time.Millisecond, 20*time.Millisecond)
		owner, other := affinityBackend(t, g, backs, "mri")
		ledger := trackBodies(t, g)
		bodies := map[string][]byte{owner.url: frame('a', 9000), other.url: frame('k', 14000)}
		// Both backends answer in full at the same moment: the owner holds
		// its response until the hedge has reached the other backend.
		for round := 0; round < 20; round++ {
			hedgeArrived := make(chan struct{})
			owner.setHandler(func(w http.ResponseWriter, r *http.Request) {
				select {
				case <-hedgeArrived:
				case <-time.After(5 * time.Second):
				}
				serveBytes(http.StatusOK, bodies[owner.url])(w, r)
			})
			other.setHandler(func(w http.ResponseWriter, r *http.Request) {
				close(hedgeArrived)
				serveBytes(http.StatusOK, bodies[other.url])(w, r)
			})
			resp, body := gwGet(t, g, "/render?volume=mri&yaw=30")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("round %d: hedged render = %d (%.80s)", round, resp.StatusCode, body)
			}
			if want := bodies[resp.Header.Get("X-Shearwarp-Backend")]; !bytes.Equal(body, want) {
				t.Fatalf("round %d: body served from %s differs from what that backend sent (first bytes %x)",
					round, resp.Header.Get("X-Shearwarp-Backend"), body[:8])
			}
		}
		if taken := ledger.settled(g); taken < 21 {
			t.Errorf("%d body buffers taken over 20 hedged requests, want more than 20: the losers' bodies never arrived", taken)
		}
	})

	t.Run("head", func(t *testing.T) {
		g, backs := hedgingGateway(t, time.Millisecond, 10*time.Second)
		want := frame('h', 5000)
		for _, b := range backs {
			b.setHandler(serveBytes(http.StatusOK, want))
		}
		ledger := trackBodies(t, g)
		req := httptest.NewRequest(http.MethodHead, "http://gateway/render?volume=mri", nil)
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Body.Len() != 0 || rec.Header().Get("Content-Length") != "5000" {
			t.Fatalf("HEAD = %d with %d body bytes, Content-Length %q; want 200, none, 5000",
				rec.Code, rec.Body.Len(), rec.Header().Get("Content-Length"))
		}
		if taken := ledger.settled(g); taken != 1 {
			t.Errorf("%d body buffers taken for one HEAD, want 1", taken)
		}
	})

	t.Run("5xx-pass-through", func(t *testing.T) {
		g, backs := hedgingGateway(t, time.Millisecond, 10*time.Second)
		owner, other := affinityBackend(t, g, backs, "mri")
		ledger := trackBodies(t, g)

		// A deterministic failure passes through on the first attempt.
		fatal := []byte(`{"error":"preparing volume: boom"}` + "\n")
		owner.setHandler(serveBytes(http.StatusInternalServerError, fatal,
			server.ErrorClassHeader, server.ErrClassBuildFailure))
		resp, body := gwGet(t, g, "/render?volume=mri")
		if resp.StatusCode != http.StatusInternalServerError || !bytes.Equal(body, fatal) {
			t.Fatalf("build failure = %d %q, want the backend's 500 body verbatim", resp.StatusCode, body)
		}
		if taken := ledger.settled(g); taken != 1 {
			t.Errorf("%d body buffers taken for a single-attempt failure, want 1", taken)
		}

		// Retryable failures everywhere: every attempt buffers a body, each
		// replaced by the next, and the last one is what the client reads.
		shedA, shedB := frame('s', 300), frame('t', 300)
		owner.setHandler(serveBytes(http.StatusServiceUnavailable, shedA))
		other.setHandler(serveBytes(http.StatusServiceUnavailable, shedB))
		resp, body = gwGet(t, g, "/render?volume=mri")
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("fleet-wide shed = %d, want 503", resp.StatusCode)
		}
		if want := map[string][]byte{owner.url: shedA, other.url: shedB}[resp.Header.Get("X-Shearwarp-Backend")]; !bytes.Equal(body, want) {
			t.Fatalf("503 body differs from what %s sent: %.40q", resp.Header.Get("X-Shearwarp-Backend"), body)
		}
		if taken := ledger.settled(g); taken != 1+3 {
			t.Errorf("%d body buffers taken in all, want 4 (one, then one per attempt of MaxAttempts 3)", taken)
		}
	})

	t.Run("truncated", func(t *testing.T) {
		g, backs := hedgingGateway(t, time.Millisecond, 10*time.Second)
		owner, other := affinityBackend(t, g, backs, "mri")
		ledger := trackBodies(t, g)
		want := frame('w', 7000)
		owner.setHandler(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "5000")
			w.Write(make([]byte, 1200))
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler) // drop the connection mid-body
		})
		other.setHandler(serveBytes(http.StatusOK, want))
		resp, body := gwGet(t, g, "/render?volume=mri")
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("render past a truncating owner = %d, %d bytes; want the other backend's 200", resp.StatusCode, len(body))
		}
		if taken := ledger.settled(g); taken != 2 {
			t.Errorf("%d body buffers taken, want 2 (the truncated read and the retry)", taken)
		}
	})
}

// TestQueryParsedOncePerHop: what the backend receives is the client's
// query minus budget=, whichever attempt carries it.
func TestQueryParsedOncePerHop(t *testing.T) {
	g, backs := hedgingGateway(t, time.Millisecond, 10*time.Second)
	owner, other := affinityBackend(t, g, backs, "mri")
	got := make(chan string, 4)
	owner.setHandler(func(w http.ResponseWriter, r *http.Request) {
		got <- r.URL.RawQuery
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	other.setHandler(func(w http.ResponseWriter, r *http.Request) {
		got <- r.URL.RawQuery
		fmt.Fprint(w, "ok")
	})
	resp, _ := gwGet(t, g, "/render?yaw=30&volume=mri&budget=5000&pitch=15")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("render = %d, want 200 via retry", resp.StatusCode)
	}
	for i := 0; i < 2; i++ {
		if q := <-got; q != "pitch=15&volume=mri&yaw=30" {
			t.Errorf("attempt %d carried query %q, want pitch=15&volume=mri&yaw=30", i, q)
		}
	}
}
