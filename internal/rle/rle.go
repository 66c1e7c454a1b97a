// Package rle implements the run-length-encoded classified volume — the
// coherence data structure at the heart of the shear-warp algorithm
// (Lacroute's encoding). Each voxel scanline is stored as alternating
// counts of transparent and non-transparent voxels plus a packed stream of
// the non-transparent voxels, so the compositor streams through both the
// volume and the intermediate image in storage order and skips transparent
// regions in O(1) per run.
//
// Because the scanline direction must match the intermediate image's u
// axis, a volume is encoded once per principal axis; a renderer keeps up to
// three encodings and picks the one matching the current factorization.
package rle

import (
	"fmt"

	"shearwarp/internal/classify"
	"shearwarp/internal/xform"
)

// Volume is the run-length encoding of a classified volume for one
// principal axis. Scanlines run along i; scanline s = k*Nj + j is line j of
// slice k in permuted coordinates.
type Volume struct {
	Axis       xform.Axis
	Ni, Nj, Nk int
	MinOpacity uint8

	// RunLens holds, per scanline, alternating run lengths starting with a
	// (possibly zero) transparent run; lengths sum to Ni per scanline.
	// Scanline s owns RunLens[RunOff[s]:RunOff[s+1]].
	RunOff  []int32
	RunLens []uint16

	// Vox packs the non-transparent voxels of every scanline in order.
	// Scanline s owns Vox[VoxOff[s]:VoxOff[s+1]].
	VoxOff []int32
	Vox    []classify.Voxel

	// Encode-time span index, structure-of-arrays: one entry per non-empty
	// non-transparent run, in scanline order, built while the voxels stream
	// through the encoder anyway. Scanline s owns index range
	// [SpanOff[s], SpanOff[s+1]). SpanLo is the span's first voxel index
	// within its scanline, SpanCnt its voxel count, SpanVox the absolute
	// offset of its first voxel in Vox, and SpanClass the maximum opacity
	// byte over its voxels (class 0 means every sample contributes exact
	// zero opacity, so kernels may treat the span as a gap). The compositor
	// windows these arrays directly, so expanding a scanline's runs into
	// spans costs nothing per frame.
	SpanOff   []int32
	SpanLo    []int32
	SpanCnt   []int32
	SpanVox   []int32
	SpanClass []uint8

	// MaxLineRuns is the largest run-header count of any scanline, set by
	// the encoders. Compositing contexts size their span scratch from it so
	// steady-state frames never grow an append.
	MaxLineRuns int
}

// computeMaxLineRuns scans RunOff for the densest scanline.
func (v *Volume) computeMaxLineRuns() {
	maxRuns := 0
	for s := 0; s+1 < len(v.RunOff); s++ {
		if n := int(v.RunOff[s+1] - v.RunOff[s]); n > maxRuns {
			maxRuns = n
		}
	}
	v.MaxLineRuns = maxRuns
}

// Encode builds the run-length encoding of c for the given principal axis.
func Encode(c *classify.Classified, axis xform.Axis) *Volume {
	ni, nj, nk := xform.PermutedDims(axis, c.Nx, c.Ny, c.Nz)
	v := &Volume{
		Axis: axis, Ni: ni, Nj: nj, Nk: nk, MinOpacity: c.MinOpacity,
		RunOff:  make([]int32, nk*nj+1),
		VoxOff:  make([]int32, nk*nj+1),
		SpanOff: make([]int32, nk*nj+1),
	}
	if ni > 0xffff {
		panic(fmt.Sprintf("rle: scanline length %d exceeds uint16 runs", ni))
	}
	line := make([]classify.Voxel, ni)
	for k := 0; k < nk; k++ {
		for j := 0; j < nj; j++ {
			s := k*nj + j
			v.RunOff[s] = int32(len(v.RunLens))
			v.VoxOff[s] = int32(len(v.Vox))
			v.SpanOff[s] = int32(len(v.SpanClass))
			for i := 0; i < ni; i++ {
				x, y, z := xform.ObjectIndex(axis, i, j, k)
				line[i] = c.Voxels[(z*c.Ny+y)*c.Nx+x]
			}
			v.encodeLine(line)
		}
	}
	v.RunOff[nk*nj] = int32(len(v.RunLens))
	v.VoxOff[nk*nj] = int32(len(v.Vox))
	v.SpanOff[nk*nj] = int32(len(v.SpanClass))
	v.computeMaxLineRuns()
	return v
}

// encodeLine appends the runs and voxels of one scanline.
func (v *Volume) encodeLine(line []classify.Voxel) {
	i := 0
	for i < len(line) {
		// Transparent run (may be empty).
		t := i
		for t < len(line) && classify.Opacity(line[t]) < v.MinOpacity {
			t++
		}
		v.RunLens = append(v.RunLens, uint16(t-i))
		i = t
		// Non-transparent run (may be empty only at end of line).
		o := i
		var class uint8
		vox := int32(len(v.Vox))
		for o < len(line) && classify.Opacity(line[o]) >= v.MinOpacity {
			if a := classify.Opacity(line[o]); a > class {
				class = a
			}
			v.Vox = append(v.Vox, line[o])
			o++
		}
		v.RunLens = append(v.RunLens, uint16(o-i))
		if o > i {
			v.SpanLo = append(v.SpanLo, int32(i))
			v.SpanCnt = append(v.SpanCnt, int32(o-i))
			v.SpanVox = append(v.SpanVox, vox)
			v.SpanClass = append(v.SpanClass, class)
		}
		i = o
	}
	if len(line) == 0 {
		v.RunLens = append(v.RunLens, 0, 0)
	}
}

// EncodeAll builds the encodings for all three principal axes, in axis
// order (x, y, z).
func EncodeAll(c *classify.Classified) [3]*Volume {
	return [3]*Volume{
		Encode(c, xform.AxisX),
		Encode(c, xform.AxisY),
		Encode(c, xform.AxisZ),
	}
}

// ScanlineID returns the flat scanline index of line j in slice k.
func (v *Volume) ScanlineID(k, j int) int { return k*v.Nj + j }

// Scanline returns the run lengths and packed voxels of line j in slice k.
func (v *Volume) Scanline(k, j int) (runs []uint16, vox []classify.Voxel) {
	s := k*v.Nj + j
	return v.RunLens[v.RunOff[s]:v.RunOff[s+1]], v.Vox[v.VoxOff[s]:v.VoxOff[s+1]]
}

// DecodeLine expands scanline (k, j) into dst, which must have length Ni.
// Transparent voxels decode as 0. It returns the number of non-transparent
// voxels and the number of runs, which the compositing kernel uses for its
// cycle accounting.
func (v *Volume) DecodeLine(k, j int, dst []classify.Voxel) (opaque, runs int) {
	if len(dst) != v.Ni {
		panic(fmt.Sprintf("rle: DecodeLine dst len %d != Ni %d", len(dst), v.Ni))
	}
	rl, vox := v.Scanline(k, j)
	i, vi := 0, 0
	for r := 0; r < len(rl); r += 2 {
		t := int(rl[r])
		for e := i + t; i < e; i++ {
			dst[i] = 0
		}
		if r+1 < len(rl) {
			o := int(rl[r+1])
			copy(dst[i:i+o], vox[vi:vi+o])
			i += o
			vi += o
			opaque += o
		}
	}
	return opaque, len(rl)
}

// Spans returns the [start, end) index ranges of non-transparent voxels in
// scanline (k, j), along with the voxel-data offset of each span's first
// voxel relative to the scanline's packed voxels.
type Span struct {
	Start, End int // voxel index range within the scanline
	VoxStart   int // offset into the scanline's packed voxel stream
}

// LineSpans lists the non-transparent spans of scanline (k, j).
func (v *Volume) LineSpans(k, j int) []Span {
	return v.AppendSpans(k, j, nil)
}

// AppendSpans appends the non-transparent spans of scanline (k, j) to dst
// and returns the extended slice; the compositing kernel reuses a scratch
// slice across calls to stay allocation-free.
func (v *Volume) AppendSpans(k, j int, dst []Span) []Span {
	rl, _ := v.Scanline(k, j)
	i, vi := 0, 0
	for r := 0; r < len(rl); r += 2 {
		i += int(rl[r])
		if r+1 < len(rl) {
			o := int(rl[r+1])
			if o > 0 {
				dst = append(dst, Span{Start: i, End: i + o, VoxStart: vi})
			}
			i += o
			vi += o
		}
	}
	return dst
}

// SpanBuf holds one or more scanlines' worth of non-transparent spans in
// structure-of-arrays form: four flat, index-aligned arrays instead of a
// slice of structs. Compositing contexts own one per contributing line and
// reuse it across scanlines, so the decode stage is append-only into
// buffers that reach steady-state capacity after the first frame.
type SpanBuf struct {
	Lo    []int32 // first voxel index of each span within its scanline
	Cnt   []int32 // sample (voxel) count of each span
	Vox   []int32 // offset of each span's first voxel in the line's packed stream
	Class []uint8 // maximum opacity byte over the span's voxels
}

// Reset empties the buffer, keeping its capacity.
func (b *SpanBuf) Reset() {
	b.Lo = b.Lo[:0]
	b.Cnt = b.Cnt[:0]
	b.Vox = b.Vox[:0]
	b.Class = b.Class[:0]
}

// Len returns the number of buffered spans.
func (b *SpanBuf) Len() int { return len(b.Lo) }

// Grow ensures capacity for at least n spans without changing Len, so a
// compositing context bound to an encoding never grows an append in the
// steady state.
func (b *SpanBuf) Grow(n int) {
	if cap(b.Lo) >= n {
		return
	}
	b.Lo = make([]int32, 0, n)
	b.Cnt = make([]int32, 0, n)
	b.Vox = make([]int32, 0, n)
	b.Class = make([]uint8, 0, n)
}

// AppendSpansSoA appends the non-transparent spans of scanline (k, j) to b
// in structure-of-arrays form, windowing the encode-time span index — no
// run header or packed voxel is touched, and Vox offsets are rebased to the
// scanline (matching Span.VoxStart). It visits exactly the (offset, count)
// sequence AppendSpans produces by walking the run headers (fuzz-verified
// by FuzzSpanDecodeSoAEquivalence).
func (v *Volume) AppendSpansSoA(k, j int, b *SpanBuf) {
	s := k*v.Nj + j
	lo, hi := v.SpanOff[s], v.SpanOff[s+1]
	base := v.VoxOff[s]
	b.Lo = append(b.Lo, v.SpanLo[lo:hi]...)
	b.Cnt = append(b.Cnt, v.SpanCnt[lo:hi]...)
	b.Class = append(b.Class, v.SpanClass[lo:hi]...)
	for _, vx := range v.SpanVox[lo:hi] {
		b.Vox = append(b.Vox, vx-base)
	}
}

// Stats summarizes the encoding.
type Stats struct {
	Voxels          int     // total voxels in the volume
	NonTransparent  int     // voxels stored in Vox
	Runs            int     // total run-length entries
	CompressionPct  float64 // encoded bytes as a percentage of dense bytes
	TransparentFrac float64
}

// ComputeStats returns size and compression statistics.
func (v *Volume) ComputeStats() Stats {
	total := v.Ni * v.Nj * v.Nk
	dense := total * 4
	enc := len(v.Vox)*4 + len(v.RunLens)*2 + len(v.RunOff)*4 + len(v.VoxOff)*4 +
		len(v.SpanOff)*4 + len(v.SpanClass) +
		(len(v.SpanLo)+len(v.SpanCnt)+len(v.SpanVox))*4
	return Stats{
		Voxels:          total,
		NonTransparent:  len(v.Vox),
		Runs:            len(v.RunLens),
		CompressionPct:  100 * float64(enc) / float64(dense),
		TransparentFrac: 1 - float64(len(v.Vox))/float64(total),
	}
}
