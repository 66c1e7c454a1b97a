package shearwarp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"shearwarp/internal/telemetry"
)

func TestCollectStatsBreakdown(t *testing.T) {
	for _, alg := range []Algorithm{Serial, OldParallel, NewParallel} {
		procs := 3
		if alg == Serial {
			procs = 1
		}
		r := NewMRIPhantom(20, Config{Algorithm: alg, Procs: procs, CollectStats: true})
		if r.LastBreakdown() != nil {
			t.Fatalf("%v: breakdown present before any frame", alg)
		}
		im, info := r.Render(30, 15)
		bd := r.LastBreakdown()
		if bd == nil {
			t.Fatalf("%v: no breakdown with CollectStats", alg)
		}
		fb := bd.Frame()
		if fb.Workers != procs || len(fb.PerWorker) != procs {
			t.Fatalf("%v: breakdown has %d workers, want %d", alg, fb.Workers, procs)
		}
		if bd.WallNanos() <= 0 {
			t.Fatalf("%v: wall time %d", alg, bd.WallNanos())
		}
		var scan, busy int64
		for i := range fb.PerWorker {
			scan += fb.PerWorker[i].Scanlines
			busy += fb.PerWorker[i].BusyNS()
		}
		if scan == 0 || busy <= 0 {
			t.Fatalf("%v: empty breakdown (scanlines %d, busy %dns)", alg, scan, busy)
		}
		if f := bd.ImbalanceFrac(); f < 0 || f > 1 {
			t.Fatalf("%v: imbalance fraction %f out of range", alg, f)
		}
		tbl := bd.Table()
		if !strings.Contains(tbl, "imbal(ms)") || !strings.Contains(tbl, "phases-"+alg.String()) {
			t.Fatalf("%v: malformed table:\n%s", alg, tbl)
		}
		data, err := bd.JSON()
		if err != nil {
			t.Fatalf("%v: JSON: %v", alg, err)
		}
		var decoded map[string]any
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatalf("%v: JSON invalid: %v", alg, err)
		}
		if decoded["algorithm"] != alg.String() {
			t.Fatalf("%v: JSON algorithm = %v", alg, decoded["algorithm"])
		}

		// One accounting: the span timeline of the same frame prints the
		// breakdown's wall and per-worker busy/sync/imbalance, and the
		// counters sum to what FrameInfo reports from the algorithm's own
		// per-worker statistics.
		tl := telemetry.Timeline(&telemetry.Trace{Spans: r.own.Spans()})
		if want := fmt.Sprintf("frame wall %.3fms over %d workers", float64(fb.WallNS)/1e6, procs); !strings.Contains(tl, want) {
			t.Fatalf("%v: timeline lacks %q:\n%s", alg, want, tl)
		}
		var steals int64
		for i := range fb.PerWorker {
			w := &fb.PerWorker[i]
			row := fmt.Sprintf("%-6d  %10.3f  %10.3f  %10.3f  |", i,
				float64(w.BusyNS())/1e6, float64(w.WaitNS)/1e6, float64(w.ImbalanceNS)/1e6)
			if !strings.Contains(tl, row) {
				t.Fatalf("%v: timeline lacks worker row %q:\n%s", alg, row, tl)
			}
			steals += w.Steals
		}
		if scan != info.Scanlines || steals != int64(info.Steals) {
			t.Fatalf("%v: breakdown counts %d scanlines / %d steals, FrameInfo %d / %d",
				alg, scan, steals, info.Scanlines, info.Steals)
		}

		// The instrumented render must be byte-identical to the plain one.
		plain := NewMRIPhantom(20, Config{Algorithm: alg, Procs: procs})
		pim, _ := plain.Render(30, 15)
		for y := 0; y < im.Height(); y++ {
			for x := 0; x < im.Width(); x++ {
				ar, ag, ab := im.At(x, y)
				br, bg, bb := pim.At(x, y)
				if ar != br || ag != bg || ab != bb {
					t.Fatalf("%v: instrumented pixel (%d,%d) differs", alg, x, y)
				}
			}
		}
	}
}

func TestCollectStatsRayCastAndDisabled(t *testing.T) {
	rc := NewMRIPhantom(20, Config{Algorithm: RayCast, CollectStats: true})
	rc.Render(30, 15)
	if rc.LastBreakdown() != nil {
		t.Fatal("raycast produced a phase breakdown")
	}
	off := NewMRIPhantom(20, Config{Algorithm: NewParallel, Procs: 2})
	off.Render(30, 15)
	if off.LastBreakdown() != nil {
		t.Fatal("breakdown present without CollectStats")
	}
	// A recorder that drops the frame's spans yields no breakdown, never a
	// partial one.
	full := telemetry.NewFrameSpans(time.Now())
	for full.Dropped() == 0 {
		full.Record(-1, "filler", telemetry.CatRequest, time.Now(), 0)
	}
	off.SetSpanRecorder(full)
	off.Render(30, 15)
	if off.LastBreakdown() != nil {
		t.Fatal("breakdown derived from a recorder that dropped spans")
	}
}

func TestAllAlgorithmsAgree(t *testing.T) {
	var images []*Image
	for _, alg := range []Algorithm{Serial, OldParallel, NewParallel} {
		r := NewMRIPhantom(20, Config{Algorithm: alg, Procs: 4})
		im, info := r.Render(30, 15)
		if im.NonBlackPixels() == 0 {
			t.Fatalf("%v rendered a black image", alg)
		}
		if info.Cycles == 0 || info.Samples == 0 {
			t.Fatalf("%v: empty frame info %+v", alg, info)
		}
		images = append(images, im)
	}
	for i := 1; i < len(images); i++ {
		a, b := images[0], images[i]
		if a.Width() != b.Width() || a.Height() != b.Height() {
			t.Fatal("image sizes differ across algorithms")
		}
		for y := 0; y < a.Height(); y++ {
			for x := 0; x < a.Width(); x++ {
				ar, ag, ab := a.At(x, y)
				br, bg, bb := b.At(x, y)
				if ar != br || ag != bg || ab != bb {
					t.Fatalf("pixel (%d,%d) differs between algorithms", x, y)
				}
			}
		}
	}
}

func TestRayCastRenders(t *testing.T) {
	r := NewMRIPhantom(20, Config{Algorithm: RayCast})
	im, info := r.Render(30, 15)
	if im.NonBlackPixels() == 0 {
		t.Fatal("ray-cast image black")
	}
	if info.Samples == 0 {
		t.Fatal("ray caster took no samples")
	}
}

func TestCTPhantom(t *testing.T) {
	r := NewCTPhantom(24, Config{Algorithm: Serial})
	im, info := r.Render(40, 10)
	if im.NonBlackPixels() == 0 {
		t.Fatal("CT image black")
	}
	if info.Transparent < 0.5 {
		t.Fatalf("CT transparent fraction %.2f implausibly low", info.Transparent)
	}
}

func TestNewRendererValidation(t *testing.T) {
	if _, err := NewRenderer(make([]uint8, 10), 4, 4, 4, Config{}); err == nil {
		t.Fatal("bad data length accepted")
	}
	if _, err := NewRenderer(make([]uint8, 4), 1, 2, 2, Config{}); err == nil {
		t.Fatal("degenerate volume accepted")
	}
	data := make([]uint8, 8*8*8)
	for i := range data {
		data[i] = uint8(i)
	}
	r, err := NewRenderer(data, 8, 8, 8, Config{Algorithm: NewParallel, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if im, _ := r.Render(10, 5); im.Width() <= 0 {
		t.Fatal("render produced no raster")
	}
}

func TestAnimationProfilingCadence(t *testing.T) {
	r := NewMRIPhantom(20, Config{Algorithm: NewParallel, Procs: 2})
	profiled := 0
	for i := 0; i < 6; i++ {
		_, info := r.Render(float64(10+7*i), 10)
		if info.Profiled {
			profiled++
		}
	}
	if profiled == 0 || profiled == 6 {
		t.Fatalf("profiled %d of 6 frames; expected periodic re-profiling", profiled)
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, s := range []string{"serial", "old", "new", "raycast"} {
		a, err := ParseAlgorithm(s)
		if err != nil || a.String() != s {
			t.Fatalf("round trip %q failed: %v %v", s, a, err)
		}
	}
	if _, err := ParseAlgorithm("quantum"); err == nil {
		t.Fatal("bad algorithm accepted")
	}
}

func TestWritePPM(t *testing.T) {
	r := NewMRIPhantom(16, Config{})
	im, _ := r.Render(0, 0)
	var buf bytes.Buffer
	if err := im.WritePPM(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "P6\n") {
		t.Fatal("not a PPM")
	}
}

func TestListFigures(t *testing.T) {
	figs := ListFigures()
	if len(figs) < 15 {
		t.Fatalf("only %d figures listed", len(figs))
	}
	if figs[0][0] != "fig2" {
		t.Fatalf("first figure %q, want fig2", figs[0][0])
	}
}

func TestRunFigureSmall(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFigure("fig10", "small", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Per-scanline profile") {
		t.Fatalf("fig10 output missing: %q", buf.String()[:min(len(buf.String()), 120)])
	}
	if err := RunFigure("fig99", "small", &buf); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if err := RunFigure("fig2", "galactic", &buf); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestRunFigureCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFigureFormat("fig10", "small", "csv", &buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "scanlines,cycles,profile") {
		t.Fatalf("CSV header missing: %q", s[:min(len(s), 150)])
	}
}

// TestResultsDefaultPinned requires the default-scale tables to equal the
// checked-in results_default.txt byte for byte. The simulators are
// deterministic, so a difference is a change in what a simulated algorithm
// does or costs: regenerate the file (EXPERIMENTS.md "Regenerating") and
// correct the numbers EXPERIMENTS.md quotes in the same change.
func TestResultsDefaultPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every figure at the default scale")
	}
	want, err := os.ReadFile("results_default.txt")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RunFigureFormat("all", "default", "text", &buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(got), len(exp)) {
		var g, e string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			t.Fatalf("results_default.txt line %d:\n got  %q\n want %q", i+1, g, e)
		}
	}
}

// TestAlgorithmAutoRendersSerial pins the zero value's library meaning:
// a Config that names no algorithm renders with Serial, as it did when
// Serial was the zero value itself.
func TestAlgorithmAutoRendersSerial(t *testing.T) {
	r := NewMRIPhantom(16, Config{CollectStats: true})
	r.Render(30, 15)
	if got := r.LastBreakdown().Frame().Algorithm; got != "serial" {
		t.Fatalf("Config{} rendered with %q, want serial", got)
	}
	if AlgorithmAuto.String() != "auto" {
		t.Fatalf("AlgorithmAuto.String() = %q", AlgorithmAuto.String())
	}
	if _, err := ParseAlgorithm("auto"); err == nil {
		t.Fatal(`ParseAlgorithm accepts "auto": the zero value is not a request parameter`)
	}
}
