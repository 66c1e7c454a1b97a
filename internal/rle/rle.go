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
	"sync"

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
	// within its scanline, SpanCnt its voxel count, and SpanVox the
	// absolute offset of its first voxel in Vox. The compositor windows
	// these arrays directly, so expanding a scanline's runs into spans
	// costs nothing per frame.
	SpanOff []int32
	SpanLo  []int32
	SpanCnt []int32
	SpanVox []int32

	// Encode-time line-pair index: for each pair of neighbouring lines
	// (s, s+1) of one slice — the two lines a slice visit with a fractional
	// row weight resamples together — the sorted components of the union of
	// [SpanLo-1, SpanLo+SpanCnt) over both lines' spans. Pair s owns
	// Pairs[PairOff[s]:PairOff[s+1]]; the last line of a slice owns none.
	// The compositor reads a visit's merged intervals from it instead of
	// merging the two span streams.
	PairOff []int32
	Pairs   []PairComp

	// MaxLineRuns is the largest run-header count of any scanline, set by
	// the encoders. Compositing contexts size their span scratch from it so
	// steady-state frames never grow an append.
	MaxLineRuns int
}

// PairComp is one component of a line pair's span union: the voxel
// interval [Lo, Hi), and per line the index, within the line's span window,
// of its first span that does not lie before the component (S0 for line s,
// S1 for line s+1).
type PairComp struct{ Lo, Hi, S0, S1 int32 }

// Encode builds the run-length encoding of c for the given principal axis
// on the calling goroutine.
func Encode(c *classify.Classified, axis xform.Axis) *Volume {
	return EncodeParallel(c, axis, 1)
}

// EncodeParallel builds the run-length encoding with the given number of
// goroutines, partitioning by slices; procs < 2 encodes on the calling
// goroutine. The output does not depend on procs. Two passes over
// exact-sized arrays: the first counts each scanline's run headers, voxels
// and spans into RunOff/VoxOff/SpanOff[s+1], a serial prefix sum turns the
// counts into offsets, and the second writes every scanline's runs, voxels
// and spans in place. The pair index is then built from the spans the same
// way: count, prefix sum, write.
func EncodeParallel(c *classify.Classified, axis xform.Axis, procs int) *Volume {
	ni, nj, nk := xform.PermutedDims(axis, c.Nx, c.Ny, c.Nz)
	if ni > 0xffff {
		panic(fmt.Sprintf("rle: scanline length %d exceeds uint16 runs", ni))
	}
	if procs > nk {
		procs = nk
	}
	if procs < 1 {
		procs = 1
	}
	v := &Volume{
		Axis: axis, Ni: ni, Nj: nj, Nk: nk, MinOpacity: c.MinOpacity,
		RunOff:  make([]int32, nk*nj+1),
		VoxOff:  make([]int32, nk*nj+1),
		SpanOff: make([]int32, nk*nj+1),
		PairOff: make([]int32, nk*nj+1),
	}
	var tiles []classify.Voxel // per-worker gather buffers, see forEachLine
	if axis != xform.AxisZ {
		tiles = make([]classify.Voxel, procs*tileLines*ni)
	}
	// fan runs work(p, k0, k1) for worker p's slices [k0, k1).
	fan := func(work func(p, k0, k1 int)) {
		if procs == 1 {
			work(0, 0, nk)
			return
		}
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				work(p, p*nk/procs, (p+1)*nk/procs)
			}(p)
		}
		wg.Wait()
	}
	pass := func(line func(s int, vox []classify.Voxel)) {
		fan(func(p, k0, k1 int) {
			forEachLine(c, axis, k0, k1, tiles[p*len(tiles)/procs:(p+1)*len(tiles)/procs], line)
		})
	}

	pass(v.countLine)
	for s := 0; s < nk*nj; s++ {
		if n := int(v.RunOff[s+1]); n > v.MaxLineRuns {
			v.MaxLineRuns = n
		}
		v.RunOff[s+1] += v.RunOff[s]
		v.VoxOff[s+1] += v.VoxOff[s]
		v.SpanOff[s+1] += v.SpanOff[s]
	}
	spans := v.SpanOff[nk*nj]
	v.RunLens = make([]uint16, v.RunOff[nk*nj])
	v.Vox = make([]classify.Voxel, v.VoxOff[nk*nj])
	v.SpanLo = make([]int32, spans)
	v.SpanCnt = make([]int32, spans)
	v.SpanVox = make([]int32, spans)
	pass(v.writeLine)

	fan(func(_, k0, k1 int) { v.pairSlices(k0, k1, false) })
	for s := 0; s < nk*nj; s++ {
		v.PairOff[s+1] += v.PairOff[s]
	}
	v.Pairs = make([]PairComp, v.PairOff[nk*nj])
	fan(func(_, k0, k1 int) { v.pairSlices(k0, k1, true) })
	return v
}

// pairSlices runs the pair index's count pass (write false: each pair's
// component count into PairOff[s+1]) or its write pass over the line pairs
// of slices [k0, k1).
func (v *Volume) pairSlices(k0, k1 int, write bool) {
	for k := k0; k < k1; k++ {
		for s := k * v.Nj; s < (k+1)*v.Nj-1; s++ {
			if write {
				v.pairLine(s, v.Pairs[v.PairOff[s]:v.PairOff[s+1]])
			} else {
				v.PairOff[s+1] = v.pairLine(s, nil)
			}
		}
	}
}

// pairLine merges the spans of lines s and s+1 into the components of the
// union of [lo-1, lo+cnt) over both, writes them to dst unless dst is nil,
// and returns how many there are. Two span intervals belong to one
// component when they overlap or touch, exactly as the compositor coalesces
// their pixel intervals.
func (v *Volume) pairLine(s int, dst []PairComp) int32 {
	a0, b0 := v.SpanOff[s], v.SpanOff[s+1]
	a1, b1 := b0, v.SpanOff[s+2]
	i0, i1 := a0, a1
	n := int32(0)
	for i0 < b0 || i1 < b1 {
		// The component starts at the next span of either line in lo
		// order and takes spans in that order while they touch it.
		cp := PairComp{S0: i0 - a0, S1: i1 - a1}
		for started := false; ; started = true {
			take0 := i0 < b0 && (i1 >= b1 || v.SpanLo[i0] <= v.SpanLo[i1])
			i := i1
			if take0 {
				i = i0
			} else if i1 >= b1 {
				break
			}
			lo, hi := v.SpanLo[i]-1, v.SpanLo[i]+v.SpanCnt[i]
			if !started {
				cp.Lo, cp.Hi = lo, hi
			} else if lo > cp.Hi {
				break
			}
			cp.Hi = max(cp.Hi, hi)
			if take0 {
				i0++
			} else {
				i1++
			}
		}
		if dst != nil {
			dst[n] = cp
		}
		n++
	}
	return n
}

// tileLines is how many scanlines the strided axes gather per sweep: 16
// voxels are one 64-byte cache line.
const tileLines = 16

// forEachLine calls line(s, vox) once for every scanline s of slices
// [k0, k1), with the scanline's Ni classified voxels in vox (valid only
// during the call).
//
// Along AxisZ a scanline is a contiguous stretch of c.Voxels. Along AxisX
// and AxisY consecutive voxels of a scanline are a row or a slice apart,
// but one of the two scanline coordinates is unit-stride in memory (k for
// AxisX, j for AxisY), so tileLines neighbouring scanlines along it are
// gathered into tile together, and every cache line fetched serves
// tileLines scanlines instead of one.
func forEachLine(c *classify.Classified, axis xform.Axis, k0, k1 int, tile []classify.Voxel, line func(s int, vox []classify.Voxel)) {
	ni, nj, _ := xform.PermutedDims(axis, c.Nx, c.Ny, c.Nz)
	if axis == xform.AxisZ {
		for s := k0 * nj; s < k1*nj; s++ {
			line(s, c.Voxels[s*ni:(s+1)*ni])
		}
		return
	}
	// Scanline (j, k) starts at voxel u + w*wStride and steps iStride per
	// i, where u is the unit-stride coordinate and w the other one.
	// AxisX: (x, y, z) = (k, i, j), so u = k, w = j.
	// AxisY: (x, y, z) = (j, k, i), so u = j, w = k.
	u0, u1, w0, w1 := k0, k1, 0, nj
	iStride, wStride, uLines, wLines := c.Nx, c.Nx*c.Ny, nj, 1
	if axis == xform.AxisY {
		u0, u1, w0, w1 = 0, nj, k0, k1
		iStride, wStride, uLines, wLines = c.Nx*c.Ny, c.Nx, 1, nj
	}
	for w := w0; w < w1; w++ {
		for u := u0; u < u1; u += tileLines {
			n := min(tileLines, u1-u)
			src := c.Voxels[w*wStride+u:]
			s := u*uLines + w*wLines
			for i := 0; i < ni; i++ {
				// Voxel i of the tile's n scanlines, four per step.
				row, o := src[i*iStride:][:n], i
				for ; len(row) >= 4; row, o = row[4:], o+4*ni {
					tile[o], tile[o+ni], tile[o+2*ni], tile[o+3*ni] = row[0], row[1], row[2], row[3]
				}
				for _, vx := range row {
					tile[o] = vx
					o += ni
				}
			}
			for t := 0; t < n; t++ {
				line(s+t*uLines, tile[t*ni:(t+1)*ni])
			}
		}
	}
}

// countLine is the first encoding pass over scanline s: it leaves the
// scanline's run-header, voxel and span counts in the offset arrays' s+1
// entries.
func (v *Volume) countLine(s int, line []classify.Voxel) {
	// Opacity is the top byte, so Opacity(vx) >= MinOpacity is vx >= thr.
	thr := classify.Voxel(v.MinOpacity) << 24
	var vox, spans int32
	prev := false
	for _, vx := range line {
		opaque := vx >= thr
		if opaque {
			vox++
			if !prev {
				spans++
			}
		}
		prev = opaque
	}
	// One (transparent, opaque) header pair per span, plus a final pair
	// with an empty opaque run when the line does not end inside a span.
	runs := 2 * spans
	if !prev {
		runs += 2
	}
	v.RunOff[s+1], v.VoxOff[s+1], v.SpanOff[s+1] = runs, vox, spans
}

// writeLine is the second encoding pass over scanline s: it writes the
// runs, voxels and span index entries into the ranges the offsets assign.
func (v *Volume) writeLine(s int, line []classify.Voxel) {
	thr := classify.Voxel(v.MinOpacity) << 24
	runs := v.RunLens[v.RunOff[s]:v.RunOff[s+1]]
	vox, span := v.VoxOff[s], v.SpanOff[s]
	for i, r := 0, 0; i < len(line); r += 2 {
		// Transparent run (may be empty).
		t := i
		for t < len(line) && line[t] < thr {
			t++
		}
		// Non-transparent run (may be empty only at end of line).
		o := t
		for o < len(line) && line[o] >= thr {
			o++
		}
		runs[r], runs[r+1] = uint16(t-i), uint16(o-t)
		if o > t {
			copy(v.Vox[vox:], line[t:o])
			v.SpanLo[span] = int32(t)
			v.SpanCnt[span] = int32(o - t)
			v.SpanVox[span] = vox
			span++
			vox += int32(o - t)
		}
		i = o
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
	return Stats{
		Voxels:          total,
		NonTransparent:  len(v.Vox),
		Runs:            len(v.RunLens),
		CompressionPct:  100 * float64(v.MemoryBytes()) / float64(dense),
		TransparentFrac: 1 - float64(len(v.Vox))/float64(total),
	}
}
