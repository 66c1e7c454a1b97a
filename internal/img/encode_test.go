package img_test

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"

	"shearwarp/internal/alloctest"
	"shearwarp/internal/classify"
	"shearwarp/internal/img"
	"shearwarp/internal/render"
	"shearwarp/internal/vol"
)

// randomFinal fills a w x h image with seeded noise (the X byte stays 0,
// as the warp leaves it).
func randomFinal(w, h int, seed int64) *img.Final {
	f := img.NewFinal(w, h)
	rng := rand.New(rand.NewSource(seed))
	for p := 0; p < len(f.Pix); p += 4 {
		f.Pix[p], f.Pix[p+1], f.Pix[p+2] = uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))
	}
	return f
}

// stdRGBA is the image the previous encoder handed to image/png: every
// pixel copied out with alpha 255.
func stdRGBA(f *img.Final) *image.RGBA {
	out := image.NewRGBA(image.Rect(0, 0, f.W, f.H))
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			r, g, b := f.AtRGB(x, y)
			out.SetRGBA(x, y, color.RGBA{R: r, G: g, B: b, A: 255})
		}
	}
	return out
}

// oldWritePPM is the previous PPM writer, kept as the byte reference.
func oldWritePPM(f *img.Final, w io.Writer) {
	fmt.Fprintf(w, "P6\n%d %d\n255\n", f.W, f.H)
	row := make([]byte, 3*f.W)
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			row[3*x], row[3*x+1], row[3*x+2] = f.AtRGB(x, y)
		}
		w.Write(row)
	}
}

// checkRoundTrip encodes f, decodes the bytes with image/png and compares
// every pixel.
func checkRoundTrip(t testing.TB, f *img.Final) {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WritePNG(&buf); err != nil {
		t.Fatalf("%dx%d: WritePNG: %v", f.W, f.H, err)
	}
	m, err := png.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%dx%d: image/png rejects the file: %v", f.W, f.H, err)
	}
	if got := m.Bounds(); got != image.Rect(0, 0, f.W, f.H) {
		t.Fatalf("decoded bounds %v, want %dx%d", got, f.W, f.H)
	}
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			r, g, b, a := m.At(x, y).RGBA()
			wr, wg, wb := f.AtRGB(x, y)
			if uint8(r>>8) != wr || uint8(g>>8) != wg || uint8(b>>8) != wb || a != 0xffff {
				t.Fatalf("%dx%d pixel (%d,%d): decoded (%d,%d,%d,a=%#x), want (%d,%d,%d,opaque)",
					f.W, f.H, x, y, r>>8, g>>8, b>>8, a, wr, wg, wb)
			}
		}
	}
}

var sizeTable = [][2]int{{1, 1}, {1, 9}, {9, 1}, {2, 2}, {3, 5}, {17, 9}, {153, 182}, {255, 3}}

func TestPNGRoundTripSizes(t *testing.T) {
	for i, s := range sizeTable {
		checkRoundTrip(t, randomFinal(s[0], s[1], int64(i)))
		checkRoundTrip(t, img.NewFinal(s[0], s[1])) // all black: one long deflate match
	}
}

func TestPNGRejectsEmptyImage(t *testing.T) {
	for _, s := range [][2]int{{0, 0}, {0, 4}, {4, 0}} {
		var buf bytes.Buffer
		if err := img.NewFinal(s[0], s[1]).WritePNG(&buf); err == nil {
			t.Errorf("%dx%d: WritePNG accepted an image without pixels", s[0], s[1])
		}
		if buf.Len() != 0 {
			t.Errorf("%dx%d: %d bytes written before the rejection", s[0], s[1], buf.Len())
		}
	}
}

// TestEncodeIsPureFunctionOfPixels: a hedged request answered by two
// backends must yield the same bytes, so neither the pooled encoder's
// history nor the goroutine may show in the output.
func TestEncodeIsPureFunctionOfPixels(t *testing.T) {
	f := randomFinal(153, 182, 7)
	other := randomFinal(64, 31, 8)
	var out [2][2]bytes.Buffer // [goroutine][png, ppm]
	var wg sync.WaitGroup
	for g := range out {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*g; i++ { // give the second goroutine's encoder a different past
				other.WritePNG(io.Discard)
				other.WritePPM(io.Discard)
			}
			if err := f.WritePNG(&out[g][0]); err != nil {
				t.Error(err)
			}
			if err := f.WritePPM(&out[g][1]); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if !bytes.Equal(out[0][0].Bytes(), out[1][0].Bytes()) {
		t.Error("two PNG encodes of the same pixels differ")
	}
	if !bytes.Equal(out[0][1].Bytes(), out[1][1].Bytes()) {
		t.Error("two PPM encodes of the same pixels differ")
	}
}

func TestPPMMatchesOldWriter(t *testing.T) {
	for i, s := range append([][2]int{{0, 0}, {0, 3}}, sizeTable...) {
		f := randomFinal(s[0], s[1], int64(100+i))
		var got, want bytes.Buffer
		if err := f.WritePPM(&got); err != nil {
			t.Fatal(err)
		}
		oldWritePPM(f, &want)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%dx%d: PPM bytes differ from the previous writer's", s[0], s[1])
		}
	}
}

func FuzzPNGRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint8(1), []byte{0})
	f.Add(uint8(1), uint8(40), []byte{255, 0, 17})
	f.Add(uint8(40), uint8(1), []byte("shear"))
	f.Add(uint8(33), uint8(21), []byte{1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(64), uint8(64), []byte{})
	f.Fuzz(func(t *testing.T, w, h uint8, data []byte) {
		im := img.NewFinal(1+int(w)%96, 1+int(h)%96)
		if len(data) > 0 {
			for p, i := 0, 0; p < len(im.Pix); p += 4 {
				for c := 0; c < 3; c, i = c+1, i+1 {
					im.Pix[p+c] = data[i%len(data)] + uint8(i/len(data))
				}
			}
		}
		checkRoundTrip(t, im)
	})
}

func TestEncodeZeroAllocs(t *testing.T) {
	if alloctest.Race {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	f := randomFinal(153, 182, 3)
	var buf bytes.Buffer
	for name, write := range map[string]func(io.Writer) error{"png": f.WritePNG, "ppm": f.WritePPM} {
		write(&buf) // grow the buffer and the pooled encoder to the frame's size
		allocs := alloctest.PerRun(50, func() {
			buf.Reset()
			write(&buf)
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state encode into a reused buffer allocates %.1f allocs/op, want 0", name, allocs)
		}
	}
}

// phantomFrames renders the two 128^3 phantoms the service benchmark
// serves, a few viewpoints each.
func phantomFrames() []*img.Final {
	var out []*img.Final
	for _, r := range []*render.Renderer{
		render.New(vol.MRIBrain(128), render.Options{PreprocProcs: 2}),
		render.New(vol.CTHead(128), render.Options{PreprocProcs: 2, Transfer: classify.CTTransfer}),
	} {
		for _, v := range [][2]float64{{30, 15}, {121, -22}, {260, 40}} {
			f, _ := r.RenderSerial(v[0]*math.Pi/180, v[1]*math.Pi/180)
			out = append(out, &img.Final{W: f.W, H: f.H, Pix: bytes.Clone(f.Pix)})
		}
	}
	return out
}

// TestPNGSizeNearStdlibDefault bounds what the fixed filter and level-1
// deflate cost on the wire against image/png's defaults (adaptive filter,
// default compression).
func TestPNGSizeNearStdlibDefault(t *testing.T) {
	for i, f := range phantomFrames() {
		checkRoundTrip(t, f)
		var ours, std bytes.Buffer
		if err := f.WritePNG(&ours); err != nil {
			t.Fatal(err)
		}
		if err := png.Encode(&std, stdRGBA(f)); err != nil {
			t.Fatal(err)
		}
		t.Logf("frame %d (%dx%d): %d bytes, image/png default %d (%.2fx)",
			i, f.W, f.H, ours.Len(), std.Len(), float64(ours.Len())/float64(std.Len()))
		if float64(ours.Len()) > 1.15*float64(std.Len()) {
			t.Errorf("frame %d: %d bytes is more than 1.15x image/png's %d", i, ours.Len(), std.Len())
		}
	}
}

// The encode ladder DESIGN.md quotes, on one 128^3 MRI frame: the
// previous encoder, image/png tuned as far as its API allows, and the
// hand-framed encoder.

type pngPool struct{ b *png.EncoderBuffer }

func (p *pngPool) Get() *png.EncoderBuffer  { return p.b }
func (p *pngPool) Put(b *png.EncoderBuffer) { p.b = b }

func BenchmarkEncode(b *testing.B) {
	f := phantomFrames()[0]
	var buf bytes.Buffer
	run := func(name string, encode func()) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				encode()
			}
			b.ReportMetric(float64(buf.Len()), "bytes")
		})
	}
	run("png-previous", func() { png.Encode(&buf, stdRGBA(f)) })
	// No copy: the RGBX pixels seen as an opaque image through NRGBA with
	// the alpha forced would need one; image/png's fastest opaque input is
	// an *image.RGBA whose alpha is 255, filled once outside the loop.
	tuned := png.Encoder{CompressionLevel: png.BestSpeed, BufferPool: &pngPool{}}
	rgba := stdRGBA(f)
	run("png-stdlib-tuned", func() { tuned.Encode(&buf, rgba) })
	run("png", func() { f.WritePNG(&buf) })
	run("ppm-previous", func() { oldWritePPM(f, &buf) })
	run("ppm", func() { f.WritePPM(&buf) })
}
