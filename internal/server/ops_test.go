package server_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"shearwarp"
	"shearwarp/internal/gateway"
	"shearwarp/internal/server"
	"shearwarp/internal/vol"
)

// The ops plane — /metrics, /healthz, /readyz, /debug/* and the dashboard
// — is served by both daemons. These tests run against a shearwarpd and
// against a shearwarpgw in front of it, so the two cannot drift apart.

// opsDaemon is one daemon under test.
type opsDaemon struct {
	name string
	url  string
}

// startOpsDaemons starts a shearwarpd with one volume and a shearwarpgw
// over it, and renders one frame through the gateway so both sides
// retain a trace.
func startOpsDaemons(t *testing.T) []opsDaemon {
	t.Helper()
	srv := server.New(server.Config{Procs: 2, MaxConcurrent: 2})
	v := vol.MRIBrain(16)
	if err := srv.RegisterVolume("mri", v.Data, v.Nx, v.Ny, v.Nz, shearwarp.TransferMRI); err != nil {
		t.Fatal(err)
	}
	back := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		back.Close()
		srv.Close()
	})
	gw, err := gateway.New(gateway.Config{Backends: []string{back.URL}, FleetInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		front.Close()
		gw.Close()
	})
	if resp, _ := opsGet(t, front.URL+"/render?volume=mri&yaw=30&pitch=15"); resp.StatusCode != http.StatusOK {
		t.Fatalf("render through the gateway: status %d", resp.StatusCode)
	}
	return []opsDaemon{{"shearwarpd", back.URL}, {"shearwarpgw", front.URL}}
}

func opsGet(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestDashSelfContained: each daemon's dashboard must work with no
// network access beyond that daemon — every fetch relative, no absolute
// URLs anywhere (fonts, CDNs, analytics).
func TestDashSelfContained(t *testing.T) {
	want := map[string][]string{
		"shearwarpd":  {"<html", "/metrics", "/debug/slo", "/debug/latency", "shearwarpd"},
		"shearwarpgw": {"<html", "/metrics", "shearwarpgw"},
	}
	for _, d := range startOpsDaemons(t) {
		t.Run(d.name, func(t *testing.T) {
			resp, doc := opsGet(t, d.url+"/debug/dash")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/debug/dash: status %d", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
				t.Fatalf("Content-Type = %q, want text/html", ct)
			}
			for _, banned := range []string{"http://", "https://", "//cdn", "<link", "src="} {
				if strings.Contains(doc, banned) {
					t.Fatalf("dashboard is not self-contained: found %q", banned)
				}
			}
			for _, w := range want[d.name] {
				if !strings.Contains(doc, w) {
					t.Fatalf("dashboard missing %q", w)
				}
			}
		})
	}
}

// TestDashEscapesCells: table cells are built only by the shared row(),
// which escapes every value, never by concatenating data into markup —
// the gateway's trace labels echo client query strings, and its backend
// rows carry transport error text.
func TestDashEscapesCells(t *testing.T) {
	for _, d := range startOpsDaemons(t) {
		t.Run(d.name, func(t *testing.T) {
			_, doc := opsGet(t, d.url+"/debug/dash")
			for _, raw := range []string{`"<td>" +`, `"</td><td>" +`, `'<td>' +`} {
				if strings.Contains(doc, raw) {
					t.Errorf("dashboard concatenates data into a cell: found %s", raw)
				}
			}
			for _, helper := range []string{"function esc(", "function row("} {
				if n := strings.Count(doc, helper); n != 1 {
					t.Errorf("%s defined %d times, want once (the shared shell's)", helper, n)
				}
			}
		})
	}
}

// TestDebugContentTypes pins the explicit Content-Type (with charset) on
// every JSON endpoint of both daemons.
func TestDebugContentTypes(t *testing.T) {
	const jsonUTF8 = "application/json; charset=utf-8"
	want := map[string]map[string]string{
		"shearwarpd": {
			"/metrics": jsonUTF8, "/healthz": jsonUTF8, "/readyz": jsonUTF8,
			"/debug/spans": jsonUTF8, "/debug/latency": jsonUTF8, "/debug/slo": jsonUTF8,
		},
		"shearwarpgw": {
			"/metrics": jsonUTF8, "/healthz": jsonUTF8, "/readyz": jsonUTF8,
			"/debug/spans": jsonUTF8, "/debug/slo": jsonUTF8,
		},
	}
	for _, d := range startOpsDaemons(t) {
		t.Run(d.name, func(t *testing.T) {
			for path, ct := range want[d.name] {
				resp, body := opsGet(t, d.url+path)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
				}
				if got := resp.Header.Get("Content-Type"); got != ct {
					t.Fatalf("%s: Content-Type = %q, want %q", path, got, ct)
				}
			}
		})
	}
}
