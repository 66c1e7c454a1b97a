package oldalg

import (
	"testing"
	"time"

	"shearwarp/internal/img"
	"shearwarp/internal/par"
	"shearwarp/internal/render"
	"shearwarp/internal/telemetry"
	"shearwarp/internal/vol"
)

func TestMatchesSerialAcrossProcs(t *testing.T) {
	r := render.New(vol.MRIBrain(24), render.Options{})
	want, _ := r.RenderSerial(0.5, 0.3)
	for _, procs := range []int{1, 2, 3, 7, 16} {
		res := Render(r, 0.5, 0.3, Config{Procs: procs})
		if !img.Equal(want, res.Out) {
			d := img.Compare(want, res.Out)
			t.Fatalf("procs=%d: image differs from serial: %+v", procs, d)
		}
	}
}

func TestMatchesSerialAcrossViews(t *testing.T) {
	r := render.New(vol.CTHead(20), render.Options{})
	for _, v := range [][2]float64{{0, 0}, {1.2, 0.8}, {2.9, -0.5}} {
		want, _ := r.RenderSerial(v[0], v[1])
		res := Render(r, v[0], v[1], Config{Procs: 4})
		if !img.Equal(want, res.Out) {
			t.Fatalf("view %v: parallel image differs", v)
		}
	}
}

func TestWorkIsConserved(t *testing.T) {
	// On this 1-CPU host a single goroutine may drain most of the queue
	// (the scheduler rarely preempts); deterministic per-processor
	// distribution is asserted by the simulator tests instead. Here we
	// check conservation: every scanline composited exactly once and every
	// tile warped by its statically assigned processor.
	r := render.New(vol.MRIBrain(32), render.Options{})
	fr := r.Setup(0.4, 0.2)
	res := Render(r, 0.4, 0.2, Config{Procs: 4})
	var lines int64
	for p := range res.PerProc {
		lines += res.PerProc[p].Composite.Scanlines
		if res.PerProc[p].Tiles == 0 {
			t.Fatalf("proc %d warped no tiles", p)
		}
	}
	if lines != int64(fr.M.H) {
		t.Fatalf("composited %d scanlines, image has %d", lines, fr.M.H)
	}
}

func TestAggregateStatsMatchSerialWork(t *testing.T) {
	// The same total compositing work regardless of processor count, modulo
	// early-termination order (which is per-row and thus identical).
	r := render.New(vol.MRIBrain(24), render.Options{})
	_, st1 := r.RenderSerial(0.5, 0.3)
	res := Render(r, 0.5, 0.3, Config{Procs: 5})
	st5 := res.Stats()
	if st5.Composite.Samples != st1.Composite.Samples {
		t.Fatalf("samples differ: serial %d parallel %d",
			st1.Composite.Samples, st5.Composite.Samples)
	}
	if st5.Warp.Pixels != st1.Warp.Pixels {
		t.Fatalf("warp pixels differ: serial %d parallel %d",
			st1.Warp.Pixels, st5.Warp.Pixels)
	}
}

func TestDefaultChunkSizeBounds(t *testing.T) {
	if c := DefaultChunkSize(10, 32); c < 1 {
		t.Fatal("chunk size must be at least 1")
	}
	if c := DefaultChunkSize(100000, 1); c > 16 {
		t.Fatalf("chunk size %d too large", c)
	}
}

// TestTileGridCoversImage: the warp's tiles at TileSize cover every pixel of
// a final image whose sides TileSize divides neither of, exactly once.
func TestTileGridCoversImage(t *testing.T) {
	tiles := par.TileGrid(nil, 100, 70, TileSize)
	covered := make([]int, 100*70)
	for _, tl := range tiles {
		for y := tl[1]; y < tl[3]; y++ {
			for x := tl[0]; x < tl[2]; x++ {
				covered[y*100+x]++
			}
		}
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("pixel %d covered %d times", i, c)
		}
	}
}

func TestZeroConfigDefaults(t *testing.T) {
	r := render.New(vol.MRIBrain(16), render.Options{})
	res := Render(r, 0.3, 0.1, Config{}) // all defaults
	if len(res.PerProc) != 1 {
		t.Fatalf("default procs = %d, want 1", len(res.PerProc))
	}
	want, _ := r.RenderSerial(0.3, 0.1)
	if !img.Equal(want, res.Out) {
		t.Fatal("default config image differs from serial")
	}
}

// TestSpanCountBoundedByWorkers: a worker records one own and one stolen
// compositing span however many chunks it takes, so a tall image cut into
// one-scanline chunks still fits the recorder — more chunks than the
// recorder has slots — and the frame's breakdown stays derivable. At 64
// workers DefaultChunkSize cuts an image of 512 to 1023 rows into
// one-scanline chunks.
func TestSpanCountBoundedByWorkers(t *testing.T) {
	v := vol.New(12, 600, 12)
	for i := range v.Data {
		v.Data[i] = uint8(i * 7)
	}
	r := render.New(v, render.Options{})
	const procs = 64
	if h := r.Setup(0, 0).M.H; h < 512 || DefaultChunkSize(h, procs) != 1 {
		t.Fatalf("intermediate image has %d rows; the test needs more one-scanline chunks than the recorder's 512 slots", h)
	}
	fs := telemetry.NewFrameSpans(time.Now())
	r.Spans = fs
	Render(r, 0, 0, Config{Procs: procs})
	if fs.Dropped() != 0 {
		t.Fatalf("recorder dropped %d spans", fs.Dropped())
	}
	perWorker := make([]int, procs)
	for _, sp := range fs.Spans() {
		if sp.Worker >= 0 {
			perWorker[sp.Worker]++
		}
	}
	for w, n := range perWorker {
		if n < 1 || n > 4 { // own, steal, barrier-wait, warp
			t.Fatalf("worker %d recorded %d spans, want 1..4", w, n)
		}
	}
}
