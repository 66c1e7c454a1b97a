package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// stubService mimics the shearwarpd surface loadgen touches: /healthz
// with volume_names, /metrics with cache counters, and /render.
type stubService struct {
	mu      sync.Mutex
	renders map[string]int
	hits    int64
	fail    func(volume string, n int) int // optional status override
}

func (s *stubService) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"status":       "ok",
			"volume_names": []string{"mri", "ct", "vol00"},
		})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		hits := s.hits
		s.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{
			"cache": map[string]int64{"hits": hits, "misses": 2, "builds": 2, "bytes": 4096},
		})
	})
	mux.HandleFunc("/render", func(w http.ResponseWriter, r *http.Request) {
		volume := r.URL.Query().Get("volume")
		s.mu.Lock()
		s.renders[volume]++
		n := s.renders[volume]
		s.hits++
		s.mu.Unlock()
		if s.fail != nil {
			if code := s.fail(volume, n); code != 0 {
				http.Error(w, "stub failure", code)
				return
			}
		}
		w.Write([]byte("P6 1 1 255 xxx"))
	})
	return mux
}

func newStub() *stubService { return &stubService{renders: make(map[string]int)} }

// TestRunAgainstStub drives a short run and checks the report's
// accounting: request totals, zipfian concentration on the head volume,
// discovered catalogue, and the cache delta scraped around the run.
func TestRunAgainstStub(t *testing.T) {
	stub := newStub()
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	rep, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		RPS:      200,
		Duration: 300 * time.Millisecond,
		Skew:     1.5,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests < 20 {
		t.Fatalf("requests = %d, want a few dozen at 200 rps for 300ms", rep.Requests)
	}
	if rep.ServerErrors != 0 || rep.TransportErrors != 0 {
		t.Fatalf("unexpected errors: %+v", rep)
	}
	if rep.StatusCounts["200"] != rep.Requests {
		t.Fatalf("status accounting mismatch: %v vs %d requests", rep.StatusCounts, rep.Requests)
	}
	if rep.Latency.Count != rep.Requests || rep.Latency.P99MS <= 0 {
		t.Fatalf("latency summary not populated: %+v", rep.Latency)
	}
	// Zipf over the sorted discovered catalogue [ct mri vol00] must put
	// the plurality of traffic on the head volume.
	if rep.PerVolume["ct"] <= rep.PerVolume["vol00"] {
		t.Fatalf("zipf skew not applied: %v", rep.PerVolume)
	}
	var total int64
	for _, n := range rep.PerVolume {
		total += n
	}
	if total != rep.Requests {
		t.Fatalf("per-volume counts sum to %d, want %d", total, rep.Requests)
	}
	// The stub bumps cache hits once per render; the delta is scraped
	// before/after so it should equal the request count.
	if rep.CacheDelta.Hits != rep.Requests {
		t.Fatalf("cache delta hits = %d, want %d", rep.CacheDelta.Hits, rep.Requests)
	}
	if rep.CacheDelta.BytesNow != 4096 {
		t.Fatalf("cache bytes = %d, want 4096", rep.CacheDelta.BytesNow)
	}
	if rep.AchievedRPS <= 0 {
		t.Fatalf("achieved rps = %g", rep.AchievedRPS)
	}
}

// TestRunCountsServerErrors checks 5xx responses land in ServerErrors
// and the per-status map, not in transport errors.
func TestRunCountsServerErrors(t *testing.T) {
	stub := newStub()
	stub.fail = func(volume string, n int) int {
		if n%2 == 0 {
			return http.StatusInternalServerError
		}
		return 0
	}
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	rep, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		RPS:      100,
		Duration: 200 * time.Millisecond,
		Volumes:  []string{"mri"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ServerErrors == 0 {
		t.Fatal("no server errors recorded despite stub 500s")
	}
	if rep.ServerErrors != rep.StatusCounts["500"] {
		t.Fatalf("server_errors %d != status 500 count %d", rep.ServerErrors, rep.StatusCounts["500"])
	}
	if rep.TransportErrors != 0 {
		t.Fatalf("5xx wrongly counted as transport errors: %d", rep.TransportErrors)
	}
}

// TestRunShedsAtConcurrencyCap checks the open-loop generator sheds
// (rather than queues) arrivals beyond the in-flight cap when the
// service is slower than the schedule.
func TestRunShedsAtConcurrencyCap(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/render", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(150 * time.Millisecond)
		w.Write([]byte("x"))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"cache": map[string]int64{}})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	rep, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		RPS:         200,
		Duration:    250 * time.Millisecond,
		Concurrency: 2,
		Volumes:     []string{"mri"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed == 0 {
		t.Fatalf("expected shed arrivals with 2-deep concurrency against a 150ms service: %+v", rep)
	}
	if rep.Requests > 4 {
		t.Fatalf("more completions than the cap allows: %d", rep.Requests)
	}
}

// TestConfigValidation pins the error cases.
func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{},                                       // no BaseURL
		{BaseURL: "http://x"},                    // no RPS
		{BaseURL: "http://x", RPS: 1, Skew: 0.5}, // bad skew
	} {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Fatalf("Run(%+v) succeeded, want error", cfg)
		}
	}
}

// TestDiscoverVolumes checks catalogue discovery sorts names.
func TestDiscoverVolumes(t *testing.T) {
	stub := newStub()
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	vols, err := DiscoverVolumes(context.Background(), ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ct", "mri", "vol00"}
	if len(vols) != len(want) {
		t.Fatalf("vols = %v, want %v", vols, want)
	}
	for i := range want {
		if vols[i] != want[i] {
			t.Fatalf("vols = %v, want %v", vols, want)
		}
	}
}

// TestNormalizeKeepsCallerTargets: trimming trailing slashes leaves the
// caller's Targets slice as it was.
func TestNormalizeKeepsCallerTargets(t *testing.T) {
	targets := []string{"http://a/", "http://b"}
	c := Config{Targets: targets, RPS: 1}
	if err := c.normalize(); err != nil {
		t.Fatal(err)
	}
	if c.Targets[0] != "http://a" || targets[0] != "http://a/" {
		t.Errorf("normalized %q from caller's %q; want trimmed copy, caller untouched", c.Targets, targets)
	}
}
