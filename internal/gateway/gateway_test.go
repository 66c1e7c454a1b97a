package gateway

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"shearwarp/internal/server"
)

// fakeBackend is a controllable stand-in for shearwarpd: a real
// listener (so kills and restarts exercise real connection errors),
// a /readyz that follows the ready flag, and a swappable /render
// handler with request/cancellation accounting.
type fakeBackend struct {
	t        *testing.T
	ln       net.Listener
	hs       *http.Server
	addr     string
	url      string
	ready    atomic.Bool
	renders  atomic.Int64 // /render requests received
	canceled atomic.Int64 // /render requests whose context was cancelled mid-handle
	handler  atomic.Value // func(http.ResponseWriter, *http.Request)
}

func newFakeBackend(t *testing.T) *fakeBackend {
	t.Helper()
	f := &fakeBackend{t: t}
	f.ready.Store(true)
	f.handler.Store(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "frame from %s q=%s", f.addr, r.URL.RawQuery)
	})
	f.start("")
	t.Cleanup(f.stop)
	return f
}

// start listens on addr ("" = fresh ephemeral port) and serves.
func (f *fakeBackend) start(addr string) {
	f.t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		f.t.Fatal(err)
	}
	f.ln = ln
	f.addr = ln.Addr().String()
	f.url = "http://" + f.addr
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !f.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	})
	mux.HandleFunc("/render", func(w http.ResponseWriter, r *http.Request) {
		f.renders.Add(1)
		f.handler.Load().(func(http.ResponseWriter, *http.Request))(w, r)
		if r.Context().Err() != nil {
			f.canceled.Add(1)
		}
	})
	hs := &http.Server{Handler: mux}
	f.hs = hs
	go hs.Serve(ln)
}

// stop kills the backend abruptly: listener and all live connections.
func (f *fakeBackend) stop() {
	if f.hs != nil {
		f.hs.Close()
		f.hs = nil
	}
}

// restart brings the backend back on the same address.
func (f *fakeBackend) restart() {
	f.t.Helper()
	f.stop()
	f.start(f.addr)
}

func (f *fakeBackend) setHandler(h func(http.ResponseWriter, *http.Request)) {
	f.handler.Store(h)
}

// newTestGateway builds a gateway over the fakes with fast, test-scaled
// policy knobs; overrides tweaks the config before New.
func newTestGateway(t *testing.T, backs []*fakeBackend, tweak func(*Config)) *Gateway {
	t.Helper()
	urls := make([]string, len(backs))
	for i, f := range backs {
		urls[i] = f.url
	}
	cfg := Config{
		Backends:        urls,
		HealthInterval:  50 * time.Millisecond,
		HealthTimeout:   250 * time.Millisecond,
		FailThreshold:   1,
		RiseThreshold:   1,
		MaxAttempts:     3,
		RetryBaseDelay:  time.Millisecond,
		RetryMaxDelay:   10 * time.Millisecond,
		HedgeQuantile:   -1, // off unless a test opts in
		BreakerFailures: 100,
		BreakerCooldown: 50 * time.Millisecond,
		DefaultBudget:   10 * time.Second,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func gwGet(t *testing.T, g *Gateway, path string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, "http://gateway"+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	return rec.Result(), rec.Body.Bytes()
}

// affinityBackend learns which fake backend owns a volume's key by
// issuing one request and reading the X-Shearwarp-Backend header.
func affinityBackend(t *testing.T, g *Gateway, backs []*fakeBackend, volume string) (owner, other *fakeBackend) {
	t.Helper()
	resp, body := gwGet(t, g, "/render?volume="+volume)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe render = %d (%s)", resp.StatusCode, body)
	}
	url := resp.Header.Get("X-Shearwarp-Backend")
	for _, f := range backs {
		if f.url == url {
			owner = f
		} else {
			other = f
		}
	}
	if owner == nil {
		t.Fatalf("X-Shearwarp-Backend %q names no backend", url)
	}
	return owner, other
}

// TestProxyAffinity pins fingerprint routing: all requests for one
// volume land on one backend, and different volumes spread.
func TestProxyAffinity(t *testing.T) {
	backs := []*fakeBackend{newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)}
	g := newTestGateway(t, backs, nil)

	for i := 0; i < 12; i++ {
		resp, body := gwGet(t, g, fmt.Sprintf("/render?volume=mri&yaw=%d&pitch=10", i*30))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("render %d = %d (%s)", i, resp.StatusCode, body)
		}
	}
	nonzero := 0
	for _, f := range backs {
		if f.renders.Load() > 0 {
			nonzero++
		}
	}
	if nonzero != 1 {
		counts := []int64{backs[0].renders.Load(), backs[1].renders.Load(), backs[2].renders.Load()}
		t.Fatalf("one volume's traffic hit %d backends (%v), want 1 (affinity)", nonzero, counts)
	}
}

// TestRetryOn503 pins the retry path: the affinity backend shedding
// with 503 must not surface to the client while another backend can
// serve — the gateway retries there.
func TestRetryOn503(t *testing.T) {
	backs := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	g := newTestGateway(t, backs, nil)
	owner, other := affinityBackend(t, g, backs, "mri")

	owner.setHandler(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":"queue full"}`)
	})
	resp, body := gwGet(t, g, "/render?volume=mri&yaw=30&pitch=15")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("render with shedding owner = %d (%s), want 200 via retry", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Shearwarp-Backend"); got != other.url {
		t.Fatalf("served by %q, want the non-shedding backend %q", got, other.url)
	}
	if got := resp.Header.Get("X-Shearwarp-Attempts"); got != "2" {
		t.Fatalf("attempts = %q, want 2", got)
	}
}

// TestTransportErrorRetried pins that a dead backend (connection
// refused) is a retryable failure, not a client-visible 502.
func TestTransportErrorRetried(t *testing.T) {
	backs := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	g := newTestGateway(t, backs, nil)
	owner, other := affinityBackend(t, g, backs, "mri")

	owner.stop()
	resp, body := gwGet(t, g, "/render?volume=mri&yaw=30&pitch=15")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("render with dead owner = %d (%s), want 200 via retry", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Shearwarp-Backend"); got != other.url {
		t.Fatalf("served by %q, want the live backend %q", got, other.url)
	}
}

// TestBuildFailureNotRetried is the volcache regression pinned at the
// gateway: a 500 typed build-failure is deterministic, so the gateway
// must pass it through after a single attempt instead of burning
// retries on backends that would all fail identically.
func TestBuildFailureNotRetried(t *testing.T) {
	backs := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	g := newTestGateway(t, backs, nil)
	owner, other := affinityBackend(t, g, backs, "mri")
	baselineOther := other.renders.Load()

	owner.setHandler(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(server.ErrorClassHeader, server.ErrClassBuildFailure)
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, `{"error":"volume build failed: corrupt run lengths"}`)
	})
	resp, _ := gwGet(t, g, "/render?volume=mri&yaw=30&pitch=15")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("build failure through gateway = %d, want 500 passthrough", resp.StatusCode)
	}
	if got := resp.Header.Get(server.ErrorClassHeader); got != server.ErrClassBuildFailure {
		t.Fatalf("error class = %q, want %q preserved", got, server.ErrClassBuildFailure)
	}
	if got := resp.Header.Get("X-Shearwarp-Attempts"); got != "1" {
		t.Fatalf("attempts = %q, want 1 (deterministic failures are not retried)", got)
	}
	if n := other.renders.Load(); n != baselineOther {
		t.Fatalf("non-owner backend saw %d extra requests during a non-retryable failure", n-baselineOther)
	}
}

// TestFramePanicRetried is the other half of the taxonomy: a typed
// transient 500 (frame-panic) IS worth another attempt elsewhere.
func TestFramePanicRetried(t *testing.T) {
	backs := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	g := newTestGateway(t, backs, nil)
	owner, _ := affinityBackend(t, g, backs, "mri")

	owner.setHandler(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(server.ErrorClassHeader, server.ErrClassFramePanic)
		w.WriteHeader(http.StatusInternalServerError)
	})
	resp, body := gwGet(t, g, "/render?volume=mri&yaw=30&pitch=15")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("render with panicking owner = %d (%s), want 200 via retry", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Shearwarp-Attempts"); got != "2" {
		t.Fatalf("attempts = %q, want 2", got)
	}
}

// TestHedgeCancelsLoser pins tail-latency hedging end to end with
// backend-side accounting: the hedge fires on the other backend, the
// fast response wins, and the slow loser's request context is
// cancelled (the backend is told to stop, not left rendering for a
// client that already got its frame).
func TestHedgeCancelsLoser(t *testing.T) {
	backs := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	g := newTestGateway(t, backs, func(c *Config) {
		c.HedgeQuantile = 0.95
		c.HedgeMin = time.Millisecond
		c.HedgeMax = 50 * time.Millisecond // cold gateway hedges at the ceiling
	})
	owner, other := affinityBackend(t, g, backs, "mri")

	release := make(chan struct{})
	owner.setHandler(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done(): // cancelled: we lost the hedge race
		case <-release: // safety valve so a failed test doesn't hang
		case <-time.After(10 * time.Second):
		}
		w.WriteHeader(http.StatusInternalServerError)
	})
	defer close(release)
	other.setHandler(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "fast frame")
	})

	resp, body := gwGet(t, g, "/render?volume=mri&yaw=30&pitch=15")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged render = %d (%s), want 200", resp.StatusCode, body)
	}
	if string(body) != "fast frame" {
		t.Fatalf("hedged render body = %q, want the fast backend's frame", body)
	}
	if resp.Header.Get("X-Shearwarp-Hedged") != "1" {
		t.Fatalf("winning response not marked hedged (headers %v)", resp.Header)
	}
	if g.hedged.Load() < 1 || g.hedgeWins.Load() < 1 {
		t.Fatalf("hedge counters = launched %d wins %d, want >= 1 each", g.hedged.Load(), g.hedgeWins.Load())
	}
	// The loser must observe cancellation and the gateway's per-backend
	// in-flight accounting must drain to zero — no double-charged slots.
	waitFor(t, "loser cancelled", func() bool { return owner.canceled.Load() >= 1 })
	waitFor(t, "in-flight drained", func() bool {
		for _, b := range g.backends {
			if b.inflight.Load() != 0 {
				return false
			}
		}
		return true
	})
}

// TestBudgetPropagation pins deadline forwarding: the client's budget
// reaches the backend as X-Shearwarp-Budget-Ms, and a backend that
// ignores it gets cut off by the gateway at the budget, not at the
// gateway's own 10s default.
func TestBudgetPropagation(t *testing.T) {
	backs := []*fakeBackend{newFakeBackend(t)}
	g := newTestGateway(t, backs, func(c *Config) { c.MaxAttempts = 1 })

	var gotBudget atomic.Int64
	backs[0].setHandler(func(w http.ResponseWriter, r *http.Request) {
		if ms, err := strconv.ParseInt(r.Header.Get(server.BudgetHeader), 10, 64); err == nil {
			gotBudget.Store(ms)
		}
		io.WriteString(w, "ok")
	})
	resp, _ := gwGet(t, g, "/render?volume=mri&budget=250ms")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budgeted render = %d, want 200", resp.StatusCode)
	}
	if ms := gotBudget.Load(); ms <= 0 || ms > 250 {
		t.Fatalf("backend saw budget %dms, want (0, 250]", ms)
	}

	// Bare integers are milliseconds, same as the wire header.
	gotBudget.Store(0)
	resp, _ = gwGet(t, g, "/render?volume=mri&budget=250")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bare-ms budgeted render = %d, want 200", resp.StatusCode)
	}
	if ms := gotBudget.Load(); ms <= 0 || ms > 250 {
		t.Fatalf("backend saw bare-ms budget %dms, want (0, 250]", ms)
	}

	backs[0].setHandler(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	})
	t0 := time.Now()
	resp, _ = gwGet(t, g, "/render?volume=mri&budget=100")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("blown budget = %d, want 504", resp.StatusCode)
	}
	if el := time.Since(t0); el > 5*time.Second {
		t.Fatalf("blown budget took %v; the 100ms budget did not bound the request", el)
	}
}

// TestReadyzFollowsFleet pins gateway routability: ready while at
// least one backend is eligible, 503 when the whole fleet is down,
// ready again after recovery.
func TestReadyzFollowsFleet(t *testing.T) {
	backs := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	g := newTestGateway(t, backs, nil)

	if resp, body := gwGet(t, g, "/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh /readyz = %d (%s), want 200", resp.StatusCode, body)
	}
	backs[0].stop()
	backs[1].stop()
	g.CheckNow()
	resp, _ := gwGet(t, g, "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with dead fleet = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("/readyz 503 missing Retry-After")
	}
	resp, _ = gwGet(t, g, "/render?volume=mri")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/render with dead fleet = %d, want 503 no-backend", resp.StatusCode)
	}

	backs[0].restart()
	g.CheckNow()
	if resp, _ := gwGet(t, g, "/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after recovery = %d, want 200", resp.StatusCode)
	}
}

// TestBreakerEjectsFailingBackend pins the breaker at the gateway
// level: a backend that keeps failing is ejected (no longer attempted)
// and readmitted through a half-open probe once it recovers.
func TestBreakerEjectsFailingBackend(t *testing.T) {
	backs := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	g := newTestGateway(t, backs, func(c *Config) {
		c.BreakerFailures = 3
		c.BreakerCooldown = 100 * time.Millisecond
	})
	owner, _ := affinityBackend(t, g, backs, "mri")

	owner.setHandler(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(server.ErrorClassHeader, server.ErrClassFramePanic)
		w.WriteHeader(http.StatusInternalServerError)
	})
	for i := 0; i < 4; i++ {
		gwGet(t, g, fmt.Sprintf("/render?volume=mri&yaw=%d", i))
	}
	var ob *backend
	for _, b := range g.backends {
		if b.url == owner.url {
			ob = b
		}
	}
	if ob.breaker.State() != BreakerOpen {
		t.Fatalf("failing owner's breaker = %v after repeated failures, want open", ob.breaker.State())
	}
	before := owner.renders.Load()
	resp, _ := gwGet(t, g, "/render?volume=mri&yaw=99")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("render with ejected owner = %d, want 200 from the spill backend", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Shearwarp-Attempts"); got != "1" {
		t.Fatalf("attempts with open breaker = %q, want 1 (ejected backend not attempted)", got)
	}
	if owner.renders.Load() != before {
		t.Fatal("open breaker still sent traffic to the ejected backend")
	}

	// Recovery: fix the backend, wait out the cooldown, and watch the
	// half-open probe close the circuit again.
	owner.setHandler(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "recovered") })
	time.Sleep(150 * time.Millisecond)
	waitFor(t, "breaker closes after probe", func() bool {
		gwGet(t, g, "/render?volume=mri&yaw=123")
		return ob.breaker.State() == BreakerClosed
	})
}

// TestGoroutineLeakUnderChurn kills and restarts backends under live
// traffic and asserts the gateway leaks no goroutines and strands no
// in-flight accounting.
func TestGoroutineLeakUnderChurn(t *testing.T) {
	before := runtime.NumGoroutine()

	backs := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	g := newTestGateway(t, backs, func(c *Config) {
		c.MaxAttempts = 3
		c.BreakerFailures = 1000 // churn is the subject here, not ejection
	})
	for i := 0; i < 60; i++ {
		switch i {
		case 15:
			backs[0].stop()
		case 30:
			backs[0].restart()
			g.CheckNow()
		case 45:
			backs[1].stop()
		}
		gwGet(t, g, fmt.Sprintf("/render?volume=vol%02d&yaw=%d", i%5, i))
	}
	for _, b := range g.backends {
		if n := b.inflight.Load(); n != 0 {
			t.Fatalf("backend %s in-flight = %d after all requests completed, want 0", b.url, n)
		}
	}
	g.Close()
	backs[0].stop()
	backs[1].stop()

	waitFor(t, "goroutines return to baseline", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestDeclaredLengthBody covers the path every render body takes now
// that shearwarpd always sets Content-Length: the body is read into one
// buffer of the declared size, arrives intact, leaves the backend
// connection reusable, and still honours the MaxBodyBytes cap.
func TestDeclaredLengthBody(t *testing.T) {
	back := newFakeBackend(t)
	payload := make([]byte, 100_000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var mu sync.Mutex
	conns := map[string]bool{}
	back.setHandler(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		conns[r.RemoteAddr] = true
		mu.Unlock()
		w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
		w.Write(payload)
	})
	g := newTestGateway(t, []*fakeBackend{back}, nil)
	for i := 0; i < 5; i++ {
		resp, body := gwGet(t, g, "/render?volume=mri")
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, payload) {
			t.Fatalf("request %d: status %d, %d body bytes, want 200 and the backend's %d bytes",
				i, resp.StatusCode, len(body), len(payload))
		}
	}
	mu.Lock()
	if len(conns) != 1 {
		t.Errorf("5 sequential requests used %d backend connections, want 1 (keep-alive)", len(conns))
	}
	mu.Unlock()

	small := newTestGateway(t, []*fakeBackend{back}, func(c *Config) { c.MaxBodyBytes = 1000 })
	if resp, body := gwGet(t, small, "/render?volume=mri"); resp.StatusCode != http.StatusBadGateway {
		t.Errorf("body over MaxBodyBytes answered %d (%.80s), want 502", resp.StatusCode, body)
	}
}

// TestShortDeclaredBodyIsTruncation: a backend that dies after sending
// part of the length it declared is a retryable truncation, whether the
// connection breaks or closes cleanly.
func TestShortDeclaredBodyIsTruncation(t *testing.T) {
	backs := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	g := newTestGateway(t, backs, nil)
	owner, other := affinityBackend(t, g, backs, "mri")
	owner.setHandler(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "5000")
		w.Write(make([]byte, 1200))
		panic(http.ErrAbortHandler) // drop the connection mid-body
	})
	resp, body := gwGet(t, g, "/render?volume=mri&yaw=30&pitch=15")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("render with a truncating owner = %d (%s), want 200 via retry", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Shearwarp-Backend"); got != other.url {
		t.Fatalf("served by %q, want the healthy backend %q", got, other.url)
	}

	for _, tail := range []error{io.EOF, io.ErrUnexpectedEOF} {
		short := &http.Response{ContentLength: 10, Body: io.NopCloser(io.MultiReader(
			bytes.NewReader([]byte("1234")), iotest.ErrReader(tail)))}
		b, buf, err := g.readBody(short)
		g.putBody(buf)
		if err != nil || len(b) != 4 {
			t.Errorf("body ending in %v after 4 of 10 bytes: readBody = %d bytes, %v; want 4 bytes for the length check to reject", tail, len(b), err)
		}
	}
}
