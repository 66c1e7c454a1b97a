package server

// Render-mode tests for the HTTP surface: mode=/iso= parameter handling,
// byte-identity of mode responses against direct library renders, and
// mode-qualified cache tenant attribution.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"shearwarp"
)

// directModePPM is directPPM with an explicit render mode and threshold.
func directModePPM(t *testing.T, cfg shearwarp.Config, yaw, pitch float64) []byte {
	t.Helper()
	data, nx, ny, nz := testVolume()
	r, err := shearwarp.NewRenderer(data, nx, ny, nz, cfg)
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

// TestRenderModeByteIdentical requires every mode= response to match a
// direct library render of the same configuration byte for byte, and the
// X-Shearwarp-Mode header to echo the effective mode.
func TestRenderModeByteIdentical(t *testing.T) {
	const procs = 2
	s := newTestServer(t, Config{Procs: procs, MaxConcurrent: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name  string
		query string // appended to the base render URL
		cfg   shearwarp.Config
	}{
		{"default-composite", "", shearwarp.Config{Algorithm: shearwarp.NewParallel, Procs: procs}},
		{"explicit-composite", "&mode=composite", shearwarp.Config{Algorithm: shearwarp.NewParallel, Procs: procs}},
		{"mip", "&mode=mip", shearwarp.Config{Algorithm: shearwarp.NewParallel, Procs: procs, Mode: shearwarp.ModeMIP}},
		{"iso-default-threshold", "&mode=iso",
			shearwarp.Config{Algorithm: shearwarp.NewParallel, Procs: procs, Mode: shearwarp.ModeIsosurface}},
		{"iso-explicit-threshold", "&mode=iso&iso=140",
			shearwarp.Config{Algorithm: shearwarp.NewParallel, Procs: procs, Mode: shearwarp.ModeIsosurface, IsoThreshold: 140}},
		{"iso-alias", "&mode=isosurface",
			shearwarp.Config{Algorithm: shearwarp.NewParallel, Procs: procs, Mode: shearwarp.ModeIsosurface}},
		{"mip-serial-alg", "&mode=mip&alg=serial",
			shearwarp.Config{Algorithm: shearwarp.Serial, Mode: shearwarp.ModeMIP}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			url := fmt.Sprintf("%s/render?volume=mri&yaw=40&pitch=20%s", ts.URL, tc.query)
			resp, err := ts.Client().Get(url)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, buf.Bytes())
			}
			if got, want := resp.Header.Get("X-Shearwarp-Mode"), tc.cfg.Mode.String(); got != want {
				t.Fatalf("X-Shearwarp-Mode = %q, want %q", got, want)
			}
			want := directModePPM(t, tc.cfg, 40, 20)
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("response differs from direct %s render (%d vs %d bytes)",
					tc.cfg.Mode, buf.Len(), len(want))
			}
		})
	}
}

// TestRenderModeParamErrors: malformed mode/iso parameters are client
// errors, answered 400 before any renderer is touched.
func TestRenderModeParamErrors(t *testing.T) {
	s := newTestServer(t, Config{Procs: 2, MaxConcurrent: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		query   string
		wantMsg string
	}{
		{"mode=sinc", "mode"},
		{"mode=iso&iso=256", "iso"},
		{"mode=iso&iso=-1", "iso"},
		{"mode=iso&iso=bright", "iso"},
	} {
		url := fmt.Sprintf("%s/render?volume=mri&yaw=30&pitch=15&%s", ts.URL, tc.query)
		code, body := get(t, ts.Client(), url)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.query, code, body)
		}
		if !strings.Contains(string(body), tc.wantMsg) {
			t.Errorf("%s: error %q does not mention %q", tc.query, body, tc.wantMsg)
		}
	}
}

// TestCacheTenantModeAttribution: non-composite renders register a
// mode-qualified tenant name, so per-volume cache accounting separates
// "mri" (composite) from "mri@mip" and "mri@iso" traffic.
func TestCacheTenantModeAttribution(t *testing.T) {
	s := newTestServer(t, Config{Procs: 2, MaxConcurrent: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, q := range []string{"", "&mode=mip", "&mode=iso"} {
		url := fmt.Sprintf("%s/render?volume=mri&yaw=30&pitch=15%s", ts.URL, q)
		if code, body := get(t, ts.Client(), url); code != http.StatusOK {
			t.Fatalf("render %q: status %d: %s", q, code, body)
		}
	}

	snap := s.metricsSnapshot()
	names := map[string]bool{}
	for _, ten := range snap.CacheTenants {
		names[ten.Name] = true
	}
	for _, want := range []string{"mri", "mri@mip", "mri@iso"} {
		if !names[want] {
			t.Errorf("cache tenants missing %q; have %v", want, names)
		}
	}
}
