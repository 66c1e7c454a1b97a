// Package img provides the two image types of the shear-warp pipeline: the
// intermediate (composited, sheared) image with its opaque-pixel skip links
// for early ray termination, and the final warped image, plus its PPM and
// PNG encoders (encode.go) and the comparison helpers used by the
// cross-algorithm equality tests.
package img

import (
	"fmt"
	"math"
)

// OpacityThreshold is the accumulated opacity at which an intermediate
// pixel is considered saturated and further compositing to it is skipped
// (early ray termination, section 2 of the paper).
const OpacityThreshold = 0.98

// Intermediate is the composited image in sheared object space. Pixels
// accumulate premultiplied RGBA in float32. Links holds the early-
// termination skip structure: Links[p] == 0 means pixel p is still
// receiving samples; Links[p] == n > 0 means pixels p..p+n-1 are opaque
// and a compositor may jump ahead n pixels.
type Intermediate struct {
	W, H  int
	Pix   []float32 // 4 per pixel: R, G, B, A premultiplied
	Links []int32
}

// NewIntermediate allocates a cleared intermediate image.
func NewIntermediate(w, h int) *Intermediate {
	return &Intermediate{W: w, H: h, Pix: make([]float32, 4*w*h), Links: make([]int32, w*h)}
}

// Clear resets all pixels and links; used between frames.
func (m *Intermediate) Clear() {
	clear(m.Pix)
	clear(m.Links)
}

// ClearRow resets one scanline; the new algorithm clears only the rows in
// the composited region.
func (m *Intermediate) ClearRow(v int) {
	base := v * m.W
	clear(m.Pix[4*base : 4*(base+m.W)])
	clear(m.Links[base : base+m.W])
}

// ClearRows resets scanlines [lo, hi); workers split the per-frame clear
// into one stripe each.
func (m *Intermediate) ClearRows(lo, hi int) {
	clear(m.Pix[4*lo*m.W : 4*hi*m.W])
	clear(m.Links[lo*m.W : hi*m.W])
}

// Resize reshapes the image to w x h, reusing the backing arrays when they
// have capacity. The pixels are NOT cleared; callers that reuse an image
// across frames must clear it themselves (the frame loop parallelizes that
// clear across workers).
func (m *Intermediate) Resize(w, h int) {
	m.W, m.H = w, h
	if n := 4 * w * h; cap(m.Pix) >= n {
		m.Pix = m.Pix[:n]
	} else {
		m.Pix = make([]float32, n)
	}
	if n := w * h; cap(m.Links) >= n {
		m.Links = m.Links[:n]
	} else {
		m.Links = make([]int32, n)
	}
}

// Reserve makes room for images of up to pixels pixels, so that a Resize
// within that bound never allocates. The image's size and contents are
// unspecified afterwards; Resize and clear before use.
func (m *Intermediate) Reserve(pixels int) {
	if cap(m.Links) < pixels {
		m.Pix = make([]float32, 4*pixels)
		m.Links = make([]int32, pixels)
	}
}

// PixelIndex returns the flat pixel index of (u, v).
func (m *Intermediate) PixelIndex(u, v int) int { return v*m.W + u }

// At returns the accumulated premultiplied RGBA at (u, v).
func (m *Intermediate) At(u, v int) (r, g, b, a float32) {
	p := 4 * (v*m.W + u)
	return m.Pix[p], m.Pix[p+1], m.Pix[p+2], m.Pix[p+3]
}

// Opaque reports whether pixel (u, v) is saturated.
func (m *Intermediate) Opaque(u, v int) bool { return m.Links[v*m.W+u] > 0 }

// MarkOpaque records that pixel (u, v) has saturated and coalesces the skip
// link with an immediately following opaque run, so long saturated spans
// are jumped in O(1) amortized.
func (m *Intermediate) MarkOpaque(u, v int) {
	p := v*m.W + u
	n := int32(1)
	if u+1 < m.W && m.Links[p+1] > 0 {
		n += m.Links[p+1]
	}
	m.Links[p] = n
	// Extend a preceding run that now abuts this one.
	if u > 0 && m.Links[p-1] > 0 {
		m.Links[p-1] = n + 1
	}
}

// Skip returns the first pixel index >= u in row v that is not known
// opaque, compressing links along the way. Returns m.W if the rest of the
// row is opaque.
func (m *Intermediate) Skip(u, v int) int {
	base := v * m.W
	start := u
	for u < m.W && m.Links[base+u] > 0 {
		u += int(m.Links[base+u])
	}
	if u > start {
		// Path compression: remember the full jump at the starting pixel.
		m.Links[base+start] = int32(u - start)
	}
	return u
}

// RowOpaqueCount returns the number of saturated pixels in row v
// (diagnostic; drives early-termination statistics).
func (m *Intermediate) RowOpaqueCount(v int) int {
	n := 0
	for u := 0; u < m.W; u++ {
		if m.Links[v*m.W+u] > 0 {
			n++
		}
	}
	return n
}

// Final is the warped output image, stored as 4 bytes per pixel (RGBX) so
// pixels are word-aligned in the simulated address space.
type Final struct {
	W, H int
	Pix  []uint8 // 4 per pixel: R, G, B, unused
}

// NewFinal allocates a cleared final image.
func NewFinal(w, h int) *Final {
	return &Final{W: w, H: h, Pix: make([]uint8, 4*w*h)}
}

// Clear resets all pixels.
func (f *Final) Clear() { clear(f.Pix) }

// Resize reshapes the image to w x h, reusing the backing array when it has
// capacity. RGB bytes are NOT cleared — the warp writes every RGB pixel of
// every row span it owns, and the band decomposition covers the whole image,
// so a full warp overwrites the previous frame completely. The fourth (X)
// byte of each pixel is never written by the warp; on a reused, shrunken
// buffer it retains whatever the allocation held, which is always zero
// because nothing in the pipeline writes it.
func (f *Final) Resize(w, h int) {
	f.W, f.H = w, h
	if n := 4 * w * h; cap(f.Pix) >= n {
		f.Pix = f.Pix[:n]
	} else {
		f.Pix = make([]uint8, n)
	}
}

// Reserve makes room for images of up to pixels pixels, so that a Resize
// within that bound never allocates. The image's size is unspecified
// afterwards (Resize before use); a fresh reservation is zeroed, which is
// what keeps the never-written X bytes zero.
func (f *Final) Reserve(pixels int) {
	if cap(f.Pix) < 4*pixels {
		f.Pix = make([]uint8, 4*pixels)
	}
}

// SetRGB stores a pixel.
func (f *Final) SetRGB(x, y int, r, g, b uint8) {
	p := 4 * (y*f.W + x)
	f.Pix[p], f.Pix[p+1], f.Pix[p+2] = r, g, b
}

// AtRGB reads a pixel.
func (f *Final) AtRGB(x, y int) (r, g, b uint8) {
	p := 4 * (y*f.W + x)
	return f.Pix[p], f.Pix[p+1], f.Pix[p+2]
}

// Equal reports whether two final images are identical in size and pixels.
func Equal(a, b *Final) bool {
	if a.W != b.W || a.H != b.H {
		return false
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			return false
		}
	}
	return true
}

// Diff summarizes the difference between two equally-sized final images.
type Diff struct {
	RMSE    float64 // root mean square error over RGB channels
	MaxAbs  int     // largest absolute channel difference
	Differs int     // number of differing pixels
}

// Compare computes a Diff; it panics if sizes differ.
func Compare(a, b *Final) Diff {
	if a.W != b.W || a.H != b.H {
		panic(fmt.Sprintf("img: size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H))
	}
	var d Diff
	var sq float64
	for y := 0; y < a.H; y++ {
		for x := 0; x < a.W; x++ {
			p := 4 * (y*a.W + x)
			px := false
			for c := 0; c < 3; c++ {
				e := int(a.Pix[p+c]) - int(b.Pix[p+c])
				if e != 0 {
					px = true
				}
				if e < 0 {
					e = -e
				}
				if e > d.MaxAbs {
					d.MaxAbs = e
				}
				sq += float64(e) * float64(e)
			}
			if px {
				d.Differs++
			}
		}
	}
	d.RMSE = math.Sqrt(sq / float64(3*a.W*a.H))
	return d
}

// NonBlackCount returns how many pixels have any non-zero channel — a cheap
// sanity check that a render actually produced an image.
func (f *Final) NonBlackCount() int {
	n := 0
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			p := 4 * (y*f.W + x)
			if f.Pix[p] != 0 || f.Pix[p+1] != 0 || f.Pix[p+2] != 0 {
				n++
			}
		}
	}
	return n
}
