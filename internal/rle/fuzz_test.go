package rle

import (
	"slices"
	"testing"

	"shearwarp/internal/classify"
	"shearwarp/internal/xform"
)

// buildClassified assembles a small classified volume whose packed voxels
// come straight from the fuzz bytes, so the run structure (opacity above
// or below the threshold) is entirely attacker-controlled — phantom data
// never produces adversarial run patterns like maximally alternating
// lines or an opaque voxel in the last position of every scanline.
func buildClassified(data []byte, nx, ny, nz int, minOp uint8) *classify.Classified {
	voxels := make([]classify.Voxel, nx*ny*nz)
	for i := range voxels {
		var v uint32
		for b := 0; b < 4; b++ {
			v = v<<8 | uint32(data[(4*i+b)%len(data)])
		}
		voxels[i] = v
	}
	return &classify.Classified{Nx: nx, Ny: ny, Nz: nz, Voxels: voxels, MinOpacity: minOp}
}

// FuzzEncodeDecodeRoundTrip checks the encoder's structural invariants
// and the decode round-trip on arbitrary voxel content: every scanline's
// run lengths must sum to the line length, the packed voxel stream must
// hold exactly the non-transparent voxels in order, and DecodeLine must
// reproduce the original line with transparent voxels zeroed.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add([]byte{0}, uint8(2), uint8(2), uint8(2), uint8(4), uint8(2))                      // all transparent
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint8(3), uint8(2), uint8(4), uint8(4), uint8(0)) // all opaque
	f.Add([]byte{0xff, 0, 0, 0, 0, 0, 0, 0}, uint8(4), uint8(3), uint8(2), uint8(4), uint8(1))
	f.Add([]byte{0, 0, 0, 0, 0xff, 1, 2, 3}, uint8(5), uint8(5), uint8(5), uint8(128), uint8(0)) // alternating runs
	f.Add([]byte{4, 4, 4, 4, 3, 3, 3, 3}, uint8(8), uint8(2), uint8(2), uint8(4), uint8(2))      // threshold boundary
	f.Fuzz(func(t *testing.T, data []byte, bx, by, bz, minOp, axisByte uint8) {
		if len(data) == 0 {
			t.Skip()
		}
		nx, ny, nz := 2+int(bx)%14, 2+int(by)%14, 2+int(bz)%14
		axis := xform.Axis(int(axisByte) % 3)
		c := buildClassified(data, nx, ny, nz, minOp)
		v := Encode(c, axis)

		ni, nj, nk := xform.PermutedDims(axis, nx, ny, nz)
		if v.Ni != ni || v.Nj != nj || v.Nk != nk {
			t.Fatalf("permuted dims (%d,%d,%d) != expected (%d,%d,%d)", v.Ni, v.Nj, v.Nk, ni, nj, nk)
		}
		if got, want := len(v.RunOff), nk*nj+1; got != want {
			t.Fatalf("len(RunOff) = %d, want %d", got, want)
		}
		if v.RunOff[len(v.RunOff)-1] != int32(len(v.RunLens)) {
			t.Fatalf("RunOff end %d != len(RunLens) %d", v.RunOff[len(v.RunOff)-1], len(v.RunLens))
		}
		if v.VoxOff[len(v.VoxOff)-1] != int32(len(v.Vox)) {
			t.Fatalf("VoxOff end %d != len(Vox) %d", v.VoxOff[len(v.VoxOff)-1], len(v.Vox))
		}

		dst := make([]classify.Voxel, ni)
		maxRuns := 0
		for k := 0; k < nk; k++ {
			for j := 0; j < nj; j++ {
				s := v.ScanlineID(k, j)
				if v.RunOff[s] > v.RunOff[s+1] || v.VoxOff[s] > v.VoxOff[s+1] {
					t.Fatalf("scanline %d: non-monotone offsets", s)
				}
				rl, vox := v.Scanline(k, j)
				if len(rl)%2 != 0 {
					t.Fatalf("scanline %d: odd run count %d", s, len(rl))
				}
				if n := len(rl); n > maxRuns {
					maxRuns = n
				}
				sum, opaque := 0, 0
				for r, l := range rl {
					sum += int(l)
					if r%2 == 1 {
						opaque += int(l)
					}
				}
				if sum != ni {
					t.Fatalf("scanline %d: run lengths sum to %d, want %d", s, sum, ni)
				}
				if opaque != len(vox) {
					t.Fatalf("scanline %d: opaque run total %d != packed voxels %d", s, opaque, len(vox))
				}

				// Decode round-trip against the original classified line.
				gotOpaque, gotRuns := v.DecodeLine(k, j, dst)
				if gotOpaque != opaque || gotRuns != len(rl) {
					t.Fatalf("scanline %d: DecodeLine reports (%d, %d), want (%d, %d)",
						s, gotOpaque, gotRuns, opaque, len(rl))
				}
				for i := 0; i < ni; i++ {
					x, y, z := xform.ObjectIndex(axis, i, j, k)
					orig := c.Voxels[(z*c.Ny+y)*c.Nx+x]
					want := orig
					if classify.Opacity(orig) < minOp {
						want = 0
					}
					if dst[i] != want {
						t.Fatalf("scanline %d voxel %d: decoded %#x, want %#x", s, i, dst[i], want)
					}
				}

				// Spans must cover exactly the non-transparent voxels.
				covered := 0
				vi := 0
				for _, sp := range v.LineSpans(k, j) {
					if sp.Start >= sp.End || sp.Start < 0 || sp.End > ni {
						t.Fatalf("scanline %d: bad span [%d, %d)", s, sp.Start, sp.End)
					}
					if sp.VoxStart != vi {
						t.Fatalf("scanline %d: span VoxStart %d, want %d", s, sp.VoxStart, vi)
					}
					for i := sp.Start; i < sp.End; i++ {
						if classify.Opacity(dst[i]) < minOp && minOp > 0 {
							t.Fatalf("scanline %d: span covers transparent voxel %d", s, i)
						}
					}
					covered += sp.End - sp.Start
					vi += sp.End - sp.Start
				}
				if covered != opaque {
					t.Fatalf("scanline %d: spans cover %d voxels, want %d", s, covered, opaque)
				}
			}
		}
		if v.MaxLineRuns != maxRuns {
			t.Fatalf("MaxLineRuns %d, want %d", v.MaxLineRuns, maxRuns)
		}

		// The parallel encoder must produce the identical encoding (the
		// cache keys depend on it).
		pv := EncodeParallel(c, axis, 3)
		if v.Fingerprint() != pv.Fingerprint() {
			t.Fatalf("serial and parallel encodings differ: %#x vs %#x", v.Fingerprint(), pv.Fingerprint())
		}
	})
}

// FuzzSpanDecodeSoAEquivalence pins the contract the compositing kernel
// builds on: the window of the encode-time span index it reads for a
// scanline — SpanLo/SpanCnt/SpanVox[SpanOff[s]:SpanOff[s+1]] — and the
// scalar walk of the run headers (AppendSpans) must describe the same
// spans in the same order, with identical (offset, count, voxel offset)
// triples, and each window entry must point at exactly its span's voxels
// in Vox. The kernel reads only the window, so any divergence here would
// silently change rendered frames.
func FuzzSpanDecodeSoAEquivalence(f *testing.F) {
	f.Add([]byte{0}, uint8(2), uint8(2), uint8(2), uint8(4), uint8(0))                         // all transparent
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint8(3), uint8(2), uint8(4), uint8(4), uint8(1))    // all opaque
	f.Add([]byte{0xff, 0, 0, 0, 0, 0, 0, 0}, uint8(4), uint8(3), uint8(2), uint8(4), uint8(2)) // 1-voxel runs
	f.Add([]byte{0, 0, 0, 0, 0xff, 1, 2, 3}, uint8(5), uint8(5), uint8(5), uint8(128), uint8(0))
	f.Add([]byte{4, 4, 4, 4, 3, 3, 3, 3}, uint8(8), uint8(2), uint8(2), uint8(4), uint8(1)) // threshold boundary
	f.Fuzz(func(t *testing.T, data []byte, bx, by, bz, minOp, axisByte uint8) {
		if len(data) == 0 {
			t.Skip()
		}
		nx, ny, nz := 2+int(bx)%14, 2+int(by)%14, 2+int(bz)%14
		axis := xform.Axis(int(axisByte) % 3)
		c := buildClassified(data, nx, ny, nz, minOp)
		v := Encode(c, axis)

		// The index must be index-aligned and scanline-monotone.
		nSpans := len(v.SpanLo)
		if len(v.SpanCnt) != nSpans || len(v.SpanVox) != nSpans {
			t.Fatalf("index arrays misaligned: lo %d cnt %d vox %d", nSpans, len(v.SpanCnt), len(v.SpanVox))
		}
		if got, want := len(v.SpanOff), v.Nk*v.Nj+1; got != want {
			t.Fatalf("len(SpanOff) = %d, want %d", got, want)
		}
		if v.SpanOff[len(v.SpanOff)-1] != int32(nSpans) {
			t.Fatalf("SpanOff end %d != span count %d", v.SpanOff[len(v.SpanOff)-1], nSpans)
		}

		for k := 0; k < v.Nk; k++ {
			for j := 0; j < v.Nj; j++ {
				s := v.ScanlineID(k, j)
				a, b := v.SpanOff[s], v.SpanOff[s+1]
				if a > b {
					t.Fatalf("scanline %d: non-monotone SpanOff", s)
				}
				lo, cnt, vox := v.SpanLo[a:b], v.SpanCnt[a:b], v.SpanVox[a:b]
				scalar := v.AppendSpans(k, j, nil)
				if len(lo) != len(scalar) {
					t.Fatalf("scanline %d: window holds %d spans, scalar run walk %d", s, len(lo), len(scalar))
				}
				base := v.VoxOff[s]
				_, line := v.Scanline(k, j)
				for n, sp := range scalar {
					if int(lo[n]) != sp.Start || int(cnt[n]) != sp.End-sp.Start || int(vox[n]-base) != sp.VoxStart {
						t.Fatalf("scanline %d span %d: window (offset %d, count %d, voxel %d), scalar (%d, %d, %d)",
							s, n, lo[n], cnt[n], vox[n]-base, sp.Start, sp.End-sp.Start, sp.VoxStart)
					}
					want := line[sp.VoxStart : sp.VoxStart+sp.End-sp.Start]
					if got := v.Vox[vox[n] : vox[n]+cnt[n]]; !slices.Equal(got, want) {
						t.Fatalf("scanline %d span %d: window voxels %v, scanline's %v", s, n, got, want)
					}
				}
			}
		}
	})
}
