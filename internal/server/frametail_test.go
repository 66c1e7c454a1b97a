package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"shearwarp"
	"shearwarp/internal/telemetry"
)

// TestNoTornFramesNewParallel is the regression test for the frame tail's
// ownership rule. NewParallel returns its renderer's reusable output
// image; the service must finish reading that image before the renderer
// can serve the next request. With fewer renderers than clients, and
// viewpoints whose final images differ in size, a renderer released too
// early shows as bodies that differ from the direct render (two frames
// mixed) or as a handler panic (an encoder indexing past a shrunken
// image), which a client sees as a broken connection.
func TestNoTornFramesNewParallel(t *testing.T) {
	const procs = 2
	views := [][2]float64{{30, 15}, {75, -10}, {10, 60}, {-40, 25}, {121, 38}, {200, -52}}
	want := map[string][][]byte{}
	for _, v := range views {
		data, nx, ny, nz := testVolume()
		r, err := shearwarp.NewRenderer(data, nx, ny, nz, shearwarp.Config{Algorithm: shearwarp.NewParallel, Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		im, _ := r.Render(v[0], v[1])
		var ppm, png bytes.Buffer
		if err := im.WritePPM(&ppm); err != nil {
			t.Fatal(err)
		}
		if err := im.WritePNG(&png); err != nil {
			t.Fatal(err)
		}
		r.Close()
		want["ppm"] = append(want["ppm"], ppm.Bytes())
		want["png"] = append(want["png"], png.Bytes())
	}
	sizes := map[int]bool{}
	for _, b := range want["ppm"] {
		sizes[len(b)] = true
	}
	if len(sizes) < 3 {
		t.Fatalf("the viewpoints give only %d distinct final image sizes; the test needs them to vary", len(sizes))
	}

	const perClient = 25
	for _, maxConc := range []int{1, 8} {
		for _, clients := range []int{4, 16} {
			for _, format := range []string{"ppm", "png"} {
				t.Run(fmt.Sprintf("slots=%d/clients=%d/%s", maxConc, clients, format), func(t *testing.T) {
					s := newTestServer(t, Config{
						Procs:         procs,
						Algorithm:     shearwarp.NewParallel,
						MaxConcurrent: maxConc,
						MaxQueue:      clients,
						QueueTimeout:  30 * time.Second,
					})
					defer s.Close()
					ts := httptest.NewServer(s.Handler())
					defer ts.Close()

					var torn, broken, refused int
					var mu sync.Mutex
					var wg sync.WaitGroup
					for c := 0; c < clients; c++ {
						wg.Add(1)
						go func(c int) {
							defer wg.Done()
							for i := 0; i < perClient; i++ {
								vi := (c + i) % len(views)
								url := fmt.Sprintf("%s/render?volume=mri&alg=new&format=%s&yaw=%g&pitch=%g",
									ts.URL, format, views[vi][0], views[vi][1])
								resp, err := ts.Client().Get(url)
								var body []byte
								if err == nil {
									body, err = io.ReadAll(resp.Body)
									resp.Body.Close()
								}
								mu.Lock()
								switch {
								case err != nil:
									broken++
								case resp.StatusCode != http.StatusOK:
									refused++
								case !bytes.Equal(body, want[format][vi]):
									torn++
								}
								mu.Unlock()
							}
						}(c)
					}
					wg.Wait()
					total := clients * perClient
					if torn > 0 {
						t.Errorf("%d of %d bodies differ from the direct render", torn, total)
					}
					if broken > 0 {
						t.Errorf("%d of %d requests broke off mid-response (handler panic)", broken, total)
					}
					if refused > 0 {
						t.Errorf("%d of %d requests were not answered 200", refused, total)
					}
				})
			}
		}
	}
}

// TestZeroConfigServesNewParallel pins the documented default: an
// embedded server built from Config{} renders with NewParallel, as
// shearwarpd's -alg default does, and Serial stays selectable.
func TestZeroConfigServesNewParallel(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for query, want := range map[string]string{"": "new", "&alg=serial": "serial", "&alg=old": "old"} {
		resp, err := ts.Client().Get(ts.URL + "/render?volume=mri&yaw=30&pitch=15" + query)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get("X-Shearwarp-Algorithm"); resp.StatusCode != http.StatusOK || got != want {
			t.Errorf("query %q: status %d, algorithm %q, want 200 and %q", query, resp.StatusCode, got, want)
		}
		if !bytes.Equal(body, directPPM(t, shearwarp.Serial, 1, 30, 15)) {
			t.Errorf("query %q: body differs from the direct serial render", query)
		}
	}

	explicit := newTestServer(t, Config{Algorithm: shearwarp.Serial})
	defer explicit.Close()
	rr := httptest.NewRecorder()
	explicit.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/render?volume=mri", nil))
	if got := rr.Header().Get("X-Shearwarp-Algorithm"); got != "serial" {
		t.Errorf("Config{Algorithm: Serial} served with %q", got)
	}
}

// TestRenderResponseFraming: a render answers with its exact
// Content-Length in both formats, and the request's trace keeps the
// encode span now that the render goroutine records it.
func TestRenderResponseFraming(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, format := range []string{"ppm", "png"} {
		resp, err := ts.Client().Get(ts.URL + "/render?volume=mri&format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, transfer encoding %v, body %d bytes",
				format, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
	for _, tr := range s.tel.tracer.Traces() {
		found := false
		for _, sp := range tr.Spans {
			found = found || (sp.Name == "encode" && sp.DurNS > 0)
		}
		if !found {
			t.Errorf("trace %d (%s) has no encode span", tr.ID, tr.Label)
		}
	}
}

// brokenWriter is a client that goes away before the body is written.
type brokenWriter struct{ *httptest.ResponseRecorder }

func (brokenWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestBodyWriteFailureIsLogged: the response Write's error is reported,
// with the request ID, instead of dropped.
func TestBodyWriteFailureIsLogged(t *testing.T) {
	var buf syncBuffer
	s := newTestServer(t, Config{Logger: telemetry.NewLogger(&buf, "json", slog.LevelInfo)})
	defer s.Close()
	s.Handler().ServeHTTP(brokenWriter{httptest.NewRecorder()},
		httptest.NewRequest(http.MethodGet, "/render?volume=mri", nil))
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if json.Unmarshal([]byte(line), &rec) == nil && rec["msg"] == "writing the response body failed" {
			if id, _ := rec["req"].(float64); id < 1 || rec["level"] != "WARN" {
				t.Fatalf("write failure logged without request ID or not at Warn: %v", rec)
			}
			return
		}
	}
	t.Fatalf("the failed body write left no log record in:\n%s", buf.String())
}
