package img

import (
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/adler32"
	"hash/crc32"
	"io"
	"slices"
	"strconv"
	"sync"
)

// encoder is the reusable state of one WritePNG or WritePPM call. A whole
// file is assembled in out and handed to the destination in one Write, so
// the destination sees neither small writes nor a partial file after an
// encoding error. Encoders are pooled: in steady state an encode allocates
// nothing.
type encoder struct {
	out []byte        // the file being assembled
	raw []byte        // PNG: the filtered scanlines deflate compresses
	zw  *flate.Writer // PNG: level-1 deflate, Reset onto the encoder per call
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// Write appends deflate's output to the file; it is the flate.Writer's
// destination.
func (e *encoder) Write(p []byte) (int, error) {
	e.out = append(e.out, p...)
	return len(p), nil
}

// WritePPM serializes the image as binary PPM (P6) with a single Write.
func (f *Final) WritePPM(w io.Writer) error {
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	b := append(e.out[:0], "P6\n"...)
	b = strconv.AppendInt(b, int64(f.W), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(f.H), 10)
	b = append(b, "\n255\n"...)
	hdr, n := len(b), f.W*f.H
	b = slices.Grow(b, 3*n)[:hdr+3*n]
	px := f.Pix[:4*n]
	for i, o := 0, hdr; i < len(px); i, o = i+4, o+3 {
		b[o], b[o+1], b[o+2] = px[i], px[i+1], px[i+2]
	}
	e.out = b
	_, err := w.Write(b)
	return err
}

const (
	pngSignature = "\x89PNG\r\n\x1a\n"
	// filterUp is PNG filter type 2: every byte minus the byte above it.
	filterUp = 2
)

// WritePNG serializes the image as an 8-bit RGB PNG with a single Write.
//
// The file is framed here instead of by image/png: every scanline takes
// the Up filter (the rendered phantoms are smooth vertically, and one
// fixed filter is computed straight from Pix with no candidate trials),
// the scanlines go through one level-1 deflate stream whose state is
// reused across calls, and that stream sits in a hand-written zlib frame
// inside a single IDAT chunk. The output is a pure function of the pixels.
func (f *Final) WritePNG(w io.Writer) error {
	if f.W <= 0 || f.H <= 0 {
		return fmt.Errorf("img: invalid PNG image size %dx%d", f.W, f.H)
	}
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)

	b := append(e.out[:0], pngSignature...)
	b = beginChunk(b, "IHDR")
	b = binary.BigEndian.AppendUint32(b, uint32(f.W))
	b = binary.BigEndian.AppendUint32(b, uint32(f.H))
	b = append(b, 8, 2, 0, 0, 0) // bit depth, colour type RGB, deflate, adaptive filtering, no interlace
	b = endChunk(b, len(pngSignature))

	idat := len(b)
	b = beginChunk(b, "IDAT")
	b = append(b, 0x78, 0x01) // zlib: deflate with a 32 KiB window, fastest level, no dictionary
	e.out = b
	e.filter(f)
	if e.zw == nil {
		e.zw, _ = flate.NewWriter(e, flate.BestSpeed) // errs only on an invalid level
	} else {
		e.zw.Reset(e)
	}
	if _, err := e.zw.Write(e.raw); err != nil {
		return err
	}
	if err := e.zw.Close(); err != nil {
		return err
	}
	b = binary.BigEndian.AppendUint32(e.out, adler32.Checksum(e.raw))
	b = endChunk(b, idat)

	iend := len(b)
	b = endChunk(beginChunk(b, "IEND"), iend)
	e.out = b
	_, err := w.Write(b)
	return err
}

// filter fills e.raw with the image's scanlines as PNG stores them: a
// filter-type byte, then the row's RGB bytes minus the row above (the row
// above the first is all zero).
func (e *encoder) filter(f *Final) {
	stride := 1 + 3*f.W
	e.raw = slices.Grow(e.raw[:0], stride*f.H)[:stride*f.H]
	row := e.raw[:stride]
	cur := f.Pix[:4*f.W]
	row[0] = filterUp
	for i, o := 0, 1; i < len(cur); i, o = i+4, o+3 {
		row[o], row[o+1], row[o+2] = cur[i], cur[i+1], cur[i+2]
	}
	for y := 1; y < f.H; y++ {
		row = e.raw[y*stride : (y+1)*stride]
		up := f.Pix[4*(y-1)*f.W : 4*y*f.W]
		cur = f.Pix[4*y*f.W : 4*(y+1)*f.W][:len(up)]
		row[0] = filterUp
		for i, o := 0, 1; i < len(up); i, o = i+4, o+3 {
			row[o], row[o+1], row[o+2] = cur[i]-up[i], cur[i+1]-up[i+1], cur[i+2]-up[i+2]
		}
	}
}

// beginChunk appends a PNG chunk's length placeholder and type.
func beginChunk(b []byte, typ string) []byte {
	b = append(b, 0, 0, 0, 0)
	return append(b, typ...)
}

// endChunk closes the chunk that beginChunk opened at b[start:]: it fills
// in the data length and appends the CRC-32 of type and data.
func endChunk(b []byte, start int) []byte {
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-8))
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start+4:]))
}
