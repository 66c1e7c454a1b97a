package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"shearwarp"
	"shearwarp/internal/faultinject"
	"shearwarp/internal/vol"
)

// testVolume returns the small MRI phantom used throughout these tests.
func testVolume() (data []uint8, nx, ny, nz int) {
	v := vol.MRIBrain(32)
	return v.Data, v.Nx, v.Ny, v.Nz
}

// newTestServer builds a Server with the phantom registered and the given
// config (zero fields defaulted by New). Callers own Close.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	data, nx, ny, nz := testVolume()
	if err := s.RegisterVolume("mri", data, nx, ny, nz, shearwarp.TransferMRI); err != nil {
		t.Fatal(err)
	}
	return s
}

// directPPM renders a viewpoint with the library directly and returns the
// PPM bytes — the reference the service's responses must match exactly.
func directPPM(t *testing.T, alg shearwarp.Algorithm, procs int, yaw, pitch float64) []byte {
	t.Helper()
	data, nx, ny, nz := testVolume()
	r, err := shearwarp.NewRenderer(data, nx, ny, nz, shearwarp.Config{Algorithm: alg, Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	im, _ := r.Render(yaw, pitch)
	var buf bytes.Buffer
	if err := im.WritePPM(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func get(t *testing.T, client *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestConcurrentRequestsByteIdentical fires 32 concurrent request streams
// at the service and requires every response to be byte-identical to a
// direct library render of the same viewpoint — the service's pooling,
// caching and admission control must be invisible in the output. Run
// under -race this is also the service's data-race test.
func TestConcurrentRequestsByteIdentical(t *testing.T) {
	const (
		procs   = 2
		clients = 32
		perEach = 3
	)
	s := newTestServer(t, Config{
		Procs:         procs,
		MaxConcurrent: 8,
		MaxQueue:      clients * perEach,
		QueueTimeout:  30 * time.Second,
		RenderTimeout: 30 * time.Second,
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	views := [][2]float64{{30, 15}, {75, -10}, {10, 60}, {-40, 25}}
	want := make([][]byte, len(views))
	for i, v := range views {
		want[i] = directPPM(t, shearwarp.NewParallel, procs, v[0], v[1])
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients*perEach)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perEach; r++ {
				vi := (c + r) % len(views)
				url := fmt.Sprintf("%s/render?volume=mri&yaw=%g&pitch=%g", ts.URL, views[vi][0], views[vi][1])
				status, body := get(t, ts.Client(), url)
				if status != http.StatusOK {
					errs <- fmt.Errorf("client %d: status %d: %s", c, status, body)
					return
				}
				if !bytes.Equal(body, want[vi]) {
					errs <- fmt.Errorf("client %d view %v: response differs from direct render (%d vs %d bytes)",
						c, views[vi], len(body), len(want[vi]))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap := s.metricsSnapshot()
	if got := snap.Endpoints["/render"].Requests; got != clients*perEach {
		t.Errorf("render requests counter = %d, want %d", got, clients*perEach)
	}
	if snap.Frames != clients*perEach {
		t.Errorf("frames counter = %d, want %d", snap.Frames, clients*perEach)
	}
	if snap.Phases.Frames != clients*perEach {
		t.Errorf("perf cumulative frames = %d, want %d", snap.Phases.Frames, clients*perEach)
	}
}

// TestCacheAmortizesPreprocessing requires that classification and
// encoding happen once per (volume, transfer, axis) no matter how many
// renderers and pools consume them: building a second pool for the same
// volume (a different algorithm) must be served entirely from cache.
func TestCacheAmortizesPreprocessing(t *testing.T) {
	s := newTestServer(t, Config{Procs: 2, MaxConcurrent: 4, PoolSize: 4})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	render := func(alg string) {
		status, body := get(t, ts.Client(), ts.URL+"/render?volume=mri&yaw=30&pitch=15&alg="+alg)
		if status != http.StatusOK {
			t.Fatalf("alg %s: status %d: %s", alg, status, body)
		}
	}
	render("new")
	first := s.CacheStats()
	if first.Builds == 0 {
		t.Fatal("no cache builds after the first render")
	}
	// One classification plus one encoding for the rendered axis.
	if first.Builds != 2 {
		t.Errorf("builds after first pool = %d, want 2 (classify + one axis encoding)", first.Builds)
	}

	// A second pool over the same volume: same classified volume, same
	// axis encoding — zero new builds, only hits.
	render("serial")
	second := s.CacheStats()
	if second.Builds != first.Builds {
		t.Errorf("second pool re-built preprocessing: builds %d -> %d", first.Builds, second.Builds)
	}
	if second.Hits <= first.Hits {
		t.Errorf("second pool did not hit the cache: hits %d -> %d", first.Hits, second.Hits)
	}

	// Repeated same-pool renders keep builds flat too.
	for i := 0; i < 3; i++ {
		render("new")
	}
	if got := s.CacheStats().Builds; got != second.Builds {
		t.Errorf("steady-state renders re-built preprocessing: builds %d -> %d", second.Builds, got)
	}
}

// TestCacheEvictionUnderTinyBudget runs the service with a cache budget
// far below one entry: every build evicts its predecessor, the eviction
// counter climbs, and responses stay byte-identical (eviction may cost
// rebuilds, never correctness).
func TestCacheEvictionUnderTinyBudget(t *testing.T) {
	const procs = 2
	s := newTestServer(t, Config{Procs: procs, MaxConcurrent: 2, PoolSize: 2, CacheBytes: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	want := directPPM(t, shearwarp.NewParallel, procs, 30, 15)
	for i := 0; i < 2; i++ {
		status, body := get(t, ts.Client(), ts.URL+"/render?volume=mri&yaw=30&pitch=15")
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("request %d: response differs from direct render", i)
		}
	}
	st := s.CacheStats()
	if st.Evictions == 0 {
		t.Errorf("no evictions under a 1-byte budget: %+v", st)
	}
	if st.Bytes > st.Capacity && st.Entries > 1 {
		t.Errorf("cache holds %d entries / %d bytes over a %d budget", st.Entries, st.Bytes, st.Capacity)
	}
}

// TestAdmissionOverloadAndTimeouts drives the admission path: with one
// render slot artificially held, a queued request must 503 after the
// queue timeout, an over-queue request must 503 immediately, and a
// request whose deadline expires while queued must 504. Afterwards the
// server must drain completely — no goroutine leaks.
func TestAdmissionOverloadAndTimeouts(t *testing.T) {
	before := runtime.NumGoroutine()

	s := newTestServer(t, Config{
		Procs:         1,
		MaxConcurrent: 1,
		PoolSize:      1,
		MaxQueue:      1,
		QueueTimeout:  100 * time.Millisecond,
		RenderTimeout: 10 * time.Second,
	})
	block := make(chan struct{})
	s.renderHook = func() { <-block } // holds the admission slot until released
	ts := httptest.NewServer(s.Handler())

	type result struct {
		status int
		body   string
	}
	results := make(chan result, 3)
	fire := func() {
		resp, err := ts.Client().Get(ts.URL + "/render?volume=mri&yaw=30&pitch=15")
		if err != nil {
			results <- result{status: -1, body: err.Error()}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		results <- result{resp.StatusCode, string(body)}
	}

	go fire() // takes the slot, blocks in the hook
	time.Sleep(50 * time.Millisecond)
	go fire() // queues, then times out after 100ms -> 503
	time.Sleep(20 * time.Millisecond)
	go fire() // queue already full -> immediate 503

	r1 := <-results
	r2 := <-results
	if r1.status != http.StatusServiceUnavailable || r2.status != http.StatusServiceUnavailable {
		t.Errorf("overload responses = %d (%s) and %d (%s), want 503s", r1.status, r1.body, r2.status, r2.body)
	}
	close(block) // release the held request
	if r := <-results; r.status != http.StatusOK {
		t.Errorf("held request finished with %d (%s), want 200", r.status, r.body)
	}

	// Deadline expiry while the slot is held: the request is admitted to
	// the queue but its render deadline lapses first -> 504.
	block = make(chan struct{})
	s.renderHook = func() { <-block }
	s.cfg.QueueTimeout = 10 * time.Second
	s.cfg.RenderTimeout = 100 * time.Millisecond
	go fire()
	time.Sleep(50 * time.Millisecond)
	go fire()
	if r := <-results; r.status != http.StatusGatewayTimeout {
		t.Errorf("deadline-expired response = %d (%s), want 504", r.status, r.body)
	}
	close(block)
	if r := <-results; r.status != http.StatusGatewayTimeout && r.status != http.StatusOK {
		t.Errorf("held request finished with %d (%s)", r.status, r.body)
	}

	snap := s.metricsSnapshot()
	if snap.Endpoints["/render"].Rejected < 2 {
		t.Errorf("rejected counter = %d, want >= 2", snap.Endpoints["/render"].Rejected)
	}
	if snap.Endpoints["/render"].Deadlines < 1 {
		t.Errorf("deadline counter = %d, want >= 1", snap.Endpoints["/render"].Deadlines)
	}

	// Shut everything down and verify the goroutine count returns to the
	// baseline (plus slack for runtime background goroutines). No goleak
	// dependency: poll with a deadline.
	ts.CloseClientConnections()
	ts.Close()
	s.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after shutdown\n%s", before, now, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestBadRequestsAndHealth covers the plain HTTP surface: parameter
// validation, unknown volumes, health checks, and the metrics document.
func TestBadRequestsAndHealth(t *testing.T) {
	s := newTestServer(t, Config{Procs: 1, MaxConcurrent: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		url    string
		status int
	}{
		{"/render?volume=nope", http.StatusNotFound},
		{"/render?volume=mri&yaw=abc", http.StatusBadRequest},
		{"/render?volume=mri&pitch=", http.StatusOK}, // empty -> default
		{"/render?volume=mri&alg=bogus", http.StatusBadRequest},
		{"/render?volume=mri&transfer=bogus", http.StatusBadRequest},
		{"/render?volume=mri&format=gif", http.StatusBadRequest},
		{"/render?volume=mri&format=png", http.StatusOK},
		{"/healthz", http.StatusOK},
	} {
		status, body := get(t, ts.Client(), ts.URL+tc.url)
		if status != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.url, status, tc.status, body)
		}
		if status >= 400 && !json.Valid(body) {
			t.Errorf("%s: error body is not JSON: %s", tc.url, body)
		}
	}

	status, body := get(t, ts.Client(), ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v", err)
	}
	if snap.Endpoints["/render"].Requests == 0 || snap.Endpoints["/render"].Errors == 0 {
		t.Errorf("metrics missed render traffic: %+v", snap.Endpoints["/render"])
	}
	if snap.Cache.Builds == 0 {
		t.Errorf("metrics missed cache builds: %+v", snap.Cache)
	}

	// Duplicate and invalid registrations.
	data, nx, ny, nz := testVolume()
	if err := s.RegisterVolume("mri", data, nx, ny, nz, shearwarp.TransferMRI); err == nil {
		t.Error("duplicate registration succeeded")
	}
	if err := s.RegisterVolume("bad", data, nx+1, ny, nz, shearwarp.TransferMRI); err == nil {
		t.Error("mis-shaped registration succeeded")
	}
	if err := s.RegisterVolume("", data, nx, ny, nz, shearwarp.TransferMRI); err == nil {
		t.Error("empty-name registration succeeded")
	}
}

// TestCloseRejectsNewRequests verifies graceful shutdown: after Close,
// /render answers 503 and /healthz flips to shutting-down.
func TestCloseRejectsNewRequests(t *testing.T) {
	s := newTestServer(t, Config{Procs: 1, MaxConcurrent: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if status, body := get(t, ts.Client(), ts.URL+"/render?volume=mri"); status != http.StatusOK {
		t.Fatalf("pre-close render: %d (%s)", status, body)
	}
	s.Close()
	if status, _ := get(t, ts.Client(), ts.URL+"/render?volume=mri"); status != http.StatusServiceUnavailable {
		t.Errorf("post-close render status %d, want 503", status)
	}
	if status, _ := get(t, ts.Client(), ts.URL+"/healthz"); status != http.StatusServiceUnavailable {
		t.Errorf("post-close healthz status %d, want 503", status)
	}
	s.Close() // idempotent
}

// TestWorkerPanicAnswers500AndServerSurvives injects a worker panic into
// the first frame: the request must answer 500 with a structured frame
// error, the panicked renderer must be replaced, and the next request —
// same pool, fresh renderer — must succeed byte-identically.
func TestWorkerPanicAnswers500AndServerSurvives(t *testing.T) {
	const procs = 2
	s := newTestServer(t, Config{
		Procs:         procs,
		Algorithm:     shearwarp.NewParallel,
		MaxConcurrent: 2,
		PoolSize:      1,
		Faults: faultinject.New(faultinject.Rule{
			Kind: faultinject.KindPanic, Site: "composite", Worker: -1, Band: -1,
		}),
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body := get(t, ts.Client(), ts.URL+"/render?volume=mri&yaw=30&pitch=15")
	if status != http.StatusInternalServerError {
		t.Fatalf("panicked frame: status %d (%s), want 500", status, body)
	}
	if !bytes.Contains(body, []byte("frame failed")) {
		t.Errorf("panicked frame body %q does not name the frame failure", body)
	}

	// The injector fires once; the second request runs clean on the
	// replacement renderer and must match a direct render exactly.
	want := directPPM(t, shearwarp.NewParallel, procs, 30, 15)
	status, body = get(t, ts.Client(), ts.URL+"/render?volume=mri&yaw=30&pitch=15")
	if status != http.StatusOK {
		t.Fatalf("frame after panic: status %d (%s), want 200", status, body)
	}
	if !bytes.Equal(body, want) {
		t.Error("frame after panic differs from direct render")
	}

	snap := s.metricsSnapshot()
	if snap.Panics < 1 {
		t.Errorf("frame_panics = %d, want >= 1", snap.Panics)
	}
	if snap.Replaced < 1 {
		t.Errorf("renderers_replaced = %d, want >= 1", snap.Replaced)
	}
	if snap.Frames != 1 {
		t.Errorf("frames = %d, want 1 (the panicked frame must not count)", snap.Frames)
	}
	if status, _ := get(t, ts.Client(), ts.URL+"/healthz"); status != http.StatusOK {
		t.Errorf("healthz after panic: %d", status)
	}
}

// TestTimeoutReleasesSlotPromptly holds a worker mid-frame with a delay
// fault long past the render deadline: the request must answer 504 before
// the delay elapses (the handler does not wait out the frame), and the
// admission slot must come back as soon as the cancelled frame drains —
// well before an uncancelled frame could have finished.
func TestTimeoutReleasesSlotPromptly(t *testing.T) {
	const (
		procs = 2
		delay = 600 * time.Millisecond
	)
	s := newTestServer(t, Config{
		Procs:         procs,
		Algorithm:     shearwarp.NewParallel,
		MaxConcurrent: 1,
		PoolSize:      1,
		RenderTimeout: 60 * time.Millisecond,
		Faults: faultinject.New(faultinject.Rule{
			Kind: faultinject.KindDelay, Site: "scanline",
			Worker: -1, Band: -1, Hit: 2, Delay: delay,
		}),
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	status, body := get(t, ts.Client(), ts.URL+"/render?volume=mri&yaw=30&pitch=15")
	responded := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("stalled frame: status %d (%s), want 504", status, body)
	}
	if responded >= delay {
		t.Errorf("504 took %v — the handler waited out the stalled frame (delay %v)", responded, delay)
	}

	// The slot is owned by the render goroutine and freed when the abort
	// drains: the sleeping worker wakes after `delay`, every other worker
	// bails within a scanline. Poll the semaphore, bounding slot latency.
	slotDeadline := time.Now().Add(delay + 2*time.Second)
	for len(s.sem) != 0 {
		if time.Now().After(slotDeadline) {
			t.Fatalf("admission slot still held %v after the 504", time.Since(start))
		}
		time.Sleep(5 * time.Millisecond)
	}

	snap := s.metricsSnapshot()
	if snap.Canceled < 1 {
		t.Errorf("frames_canceled = %d, want >= 1", snap.Canceled)
	}
	if snap.Frames != 0 {
		t.Errorf("frames = %d, want 0 (the aborted frame must not count)", snap.Frames)
	}

	// With the slot back and the injector spent, the next frame renders.
	s.cfg.RenderTimeout = 30 * time.Second
	want := directPPM(t, shearwarp.NewParallel, procs, 30, 15)
	status, body = get(t, ts.Client(), ts.URL+"/render?volume=mri&yaw=30&pitch=15")
	if status != http.StatusOK {
		t.Fatalf("frame after timeout: status %d (%s), want 200", status, body)
	}
	if !bytes.Equal(body, want) {
		t.Error("frame after timeout differs from direct render")
	}
}

// TestWatchdogCancelsStuckFrame wedges a worker with a delay fault and a
// generous request deadline: the watchdog must fire first, cancel the
// frame, answer 500, and leave the server serving.
func TestWatchdogCancelsStuckFrame(t *testing.T) {
	const delay = 600 * time.Millisecond
	s := newTestServer(t, Config{
		Procs:           2,
		Algorithm:       shearwarp.NewParallel,
		MaxConcurrent:   1,
		PoolSize:        1,
		RenderTimeout:   30 * time.Second,
		WatchdogTimeout: 50 * time.Millisecond,
		Faults: faultinject.New(faultinject.Rule{
			Kind: faultinject.KindDelay, Site: "scanline",
			Worker: -1, Band: -1, Hit: 2, Delay: delay,
		}),
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	status, body := get(t, ts.Client(), ts.URL+"/render?volume=mri&yaw=30&pitch=15")
	if status != http.StatusInternalServerError || !bytes.Contains(body, []byte("watchdog")) {
		t.Fatalf("stuck frame: status %d (%s), want watchdog 500", status, body)
	}
	if d := time.Since(start); d >= delay {
		t.Errorf("watchdog response took %v, want < %v", d, delay)
	}
	if snap := s.metricsSnapshot(); snap.Stalls != 1 {
		t.Errorf("watchdog_stalls = %d, want 1", snap.Stalls)
	}

	if status, _ := get(t, ts.Client(), ts.URL+"/render?volume=mri&yaw=30&pitch=15"); status != http.StatusOK {
		t.Errorf("frame after watchdog: status %d, want 200", status)
	}
}
