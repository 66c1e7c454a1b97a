package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"shearwarp"
	"shearwarp/internal/alloctest"
	"shearwarp/internal/vol"
)

// TestProcsDefaultsToGOMAXPROCS: a server left at its defaults renders with
// as many workers as the scheduler will run, and says so; an explicit
// Procs is kept.
func TestProcsDefaultsToGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, tc := range []struct {
		cfg  Config
		want int
	}{{Config{}, 2}, {Config{Procs: 3}, 3}} {
		s := newTestServer(t, tc.cfg)
		if got := s.Procs(); got != tc.want {
			t.Errorf("Config{Procs: %d} on GOMAXPROCS 2 resolves to %d workers, want %d", tc.cfg.Procs, got, tc.want)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		var snap MetricsSnapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Build.Procs != tc.want || snap.Build.GOMAXPROCS != 2 {
			t.Errorf("/metrics build block reports procs=%d gomaxprocs=%d, want %d and 2", snap.Build.Procs, snap.Build.GOMAXPROCS, tc.want)
		}
		s.Close()
	}
}

// discard is a ResponseWriter that keeps nothing, so the measurement below
// is the handler's own allocation.
type discard struct {
	h      http.Header
	status int
	n      int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(status int)      { d.status = status }
func (d *discard) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }

// TestRenderHandlerSteadyStateBytes bounds what one served frame allocates
// once the service is warm: a default server, one 64^3 tenant, PPM, a
// rotating camera, one request at a time. What is left per request is the
// handler's fixed cost (headers, contexts, the render goroutine, the trace
// record) — about 4.5 KiB. What must not come back: a renderer's images
// (160 KiB intermediate + 100 KiB final at this size) reallocated because
// the pool rotated to a cold renderer or because a viewpoint outgrew the
// last one, and the encoded body (30 KiB) outside the pool.
func TestRenderHandlerSteadyStateBytes(t *testing.T) {
	if alloctest.Race {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	const ceiling = 8 << 10 // bytes per request
	s := New(Config{})
	defer s.Close()
	v := vol.MRIBrain(64)
	if err := s.RegisterVolume("mri", v.Data, v.Nx, v.Ny, v.Nz, shearwarp.TransferMRI); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	serve := func(i int) {
		w := &discard{h: http.Header{}}
		r, err := http.NewRequest(http.MethodGet,
			fmt.Sprintf("/render?volume=mri&yaw=%d&pitch=%d", (i*7)%360, (i*3)%60-30), nil)
		if err != nil {
			t.Fatal(err)
		}
		h.ServeHTTP(w, r)
		if (w.status != 0 && w.status != http.StatusOK) || w.n == 0 {
			t.Fatalf("request %d: status %d, %d body bytes", i, w.status, w.n)
		}
	}
	// Warm-up: all three principal axes encoded, pools and scratch filled,
	// the trace ring full.
	const warm = 120
	for i := 0; i < warm; i++ {
		serve(i)
	}
	const requests = 300
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		serve(warm + i)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / requests
	t.Logf("%d bytes allocated per served frame (ceiling %d)", per, ceiling)
	if per > ceiling {
		t.Errorf("a warm 64^3 PPM request allocates %d bytes, ceiling %d", per, ceiling)
	}
}
