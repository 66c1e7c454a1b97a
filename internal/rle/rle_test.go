package rle

import (
	"math/rand"
	"reflect"
	"testing"

	"shearwarp/internal/classify"
	"shearwarp/internal/vol"
	"shearwarp/internal/xform"
)

// randomClassified builds a classified volume with a controllable density of
// non-transparent voxels, directly (bypassing the transfer function) so the
// encoder sees adversarial run patterns.
func randomClassified(rng *rand.Rand, nx, ny, nz int, fill float64) *classify.Classified {
	c := &classify.Classified{Nx: nx, Ny: ny, Nz: nz,
		Voxels: make([]classify.Voxel, nx*ny*nz), MinOpacity: 4}
	for i := range c.Voxels {
		if rng.Float64() < fill {
			a := uint8(4 + rng.Intn(252))
			c.Voxels[i] = classify.Pack(a, uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)))
		}
	}
	return c
}

func TestEncodeDecodeRoundTripAllAxes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, fill := range []float64{0, 0.05, 0.3, 0.9, 1.0} {
		c := randomClassified(rng, 9, 7, 5, fill)
		for _, axis := range []xform.Axis{xform.AxisX, xform.AxisY, xform.AxisZ} {
			v := Encode(c, axis)
			line := make([]classify.Voxel, v.Ni)
			for k := 0; k < v.Nk; k++ {
				for j := 0; j < v.Nj; j++ {
					v.DecodeLine(k, j, line)
					for i := 0; i < v.Ni; i++ {
						x, y, z := xform.ObjectIndex(axis, i, j, k)
						want := c.At(x, y, z)
						if classify.Opacity(want) < c.MinOpacity {
							want = 0
						}
						if line[i] != want {
							t.Fatalf("fill=%g axis=%v voxel(%d,%d,%d): got %#x want %#x",
								fill, axis, i, j, k, line[i], want)
						}
					}
				}
			}
		}
	}
}

func TestRunLengthsSumToNi(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := randomClassified(rng, 16, 6, 4, 0.4)
	v := Encode(c, xform.AxisZ)
	for k := 0; k < v.Nk; k++ {
		for j := 0; j < v.Nj; j++ {
			runs, _ := v.Scanline(k, j)
			sum := 0
			for _, r := range runs {
				sum += int(r)
			}
			if sum != v.Ni {
				t.Fatalf("scanline (%d,%d): run sum %d != Ni %d", k, j, sum, v.Ni)
			}
			if len(runs)%2 != 0 {
				t.Fatalf("scanline (%d,%d): odd run count %d", k, j, len(runs))
			}
		}
	}
}

func TestRunsAlternate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randomClassified(rng, 32, 4, 3, 0.5)
	v := Encode(c, xform.AxisZ)
	line := make([]classify.Voxel, v.Ni)
	for k := 0; k < v.Nk; k++ {
		for j := 0; j < v.Nj; j++ {
			v.DecodeLine(k, j, line)
			runs, _ := v.Scanline(k, j)
			// Walk runs and verify each describes the right voxel kind.
			i := 0
			for r, n := range runs {
				transparent := r%2 == 0
				for e := i + int(n); i < e; i++ {
					isT := classify.Opacity(line[i]) < v.MinOpacity
					if isT != transparent {
						t.Fatalf("run %d misclassifies voxel %d", r, i)
					}
				}
			}
		}
	}
}

func TestLineSpansMatchDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := randomClassified(rng, 24, 5, 4, 0.3)
	v := Encode(c, xform.AxisY)
	line := make([]classify.Voxel, v.Ni)
	for k := 0; k < v.Nk; k++ {
		for j := 0; j < v.Nj; j++ {
			v.DecodeLine(k, j, line)
			_, vox := v.Scanline(k, j)
			covered := make([]bool, v.Ni)
			for _, sp := range v.LineSpans(k, j) {
				if sp.Start >= sp.End || sp.End > v.Ni {
					t.Fatalf("bad span %+v", sp)
				}
				for i := sp.Start; i < sp.End; i++ {
					covered[i] = true
					if got := vox[sp.VoxStart+i-sp.Start]; got != line[i] {
						t.Fatalf("span voxel mismatch at %d", i)
					}
				}
			}
			for i := 0; i < v.Ni; i++ {
				opaque := classify.Opacity(line[i]) >= v.MinOpacity
				if opaque != covered[i] {
					t.Fatalf("coverage mismatch at (%d,%d,%d): opaque=%v covered=%v",
						i, j, k, opaque, covered[i])
				}
			}
		}
	}
}

func TestEncodeAllAxesConsistentVoxelCount(t *testing.T) {
	c := classify.Classify(vol.MRIBrain(24), classify.Options{})
	all := EncodeAll(c)
	n0 := len(all[0].Vox)
	for _, v := range all[1:] {
		if len(v.Vox) != n0 {
			t.Fatalf("axis encodings disagree on voxel count: %d vs %d", len(v.Vox), n0)
		}
	}
}

func TestCompressionOnPhantom(t *testing.T) {
	// The paper relies on RLE compressing medical volumes heavily.
	c := classify.Classify(vol.MRIBrain(48), classify.Options{})
	v := Encode(c, xform.AxisZ)
	st := v.ComputeStats()
	if st.TransparentFrac < 0.5 {
		t.Fatalf("transparent fraction %.2f too low for phantom", st.TransparentFrac)
	}
	if st.CompressionPct > 80 {
		t.Fatalf("encoded size %.1f%% of dense; expected real compression", st.CompressionPct)
	}
}

func TestEmptyVolumeEncodes(t *testing.T) {
	c := &classify.Classified{Nx: 8, Ny: 8, Nz: 8,
		Voxels: make([]classify.Voxel, 512), MinOpacity: 4}
	v := Encode(c, xform.AxisZ)
	if len(v.Vox) != 0 {
		t.Fatalf("empty volume produced %d voxels", len(v.Vox))
	}
	line := make([]classify.Voxel, 8)
	v.DecodeLine(0, 0, line) // must not panic
	if sp := v.LineSpans(3, 3); len(sp) != 0 {
		t.Fatalf("empty volume has spans: %v", sp)
	}
}

func TestFullyOpaqueVolumeEncodes(t *testing.T) {
	c := &classify.Classified{Nx: 6, Ny: 5, Nz: 4,
		Voxels: make([]classify.Voxel, 120), MinOpacity: 4}
	for i := range c.Voxels {
		c.Voxels[i] = classify.Pack(255, 200, 100, 50)
	}
	v := Encode(c, xform.AxisX)
	if len(v.Vox) != 120 {
		t.Fatalf("opaque volume stored %d voxels, want 120", len(v.Vox))
	}
	sp := v.LineSpans(0, 0)
	if len(sp) != 1 || sp[0].Start != 0 || sp[0].End != v.Ni {
		t.Fatalf("opaque line spans = %v", sp)
	}
}

func TestDecodeLinePanicsOnWrongLength(t *testing.T) {
	c := randomClassified(rand.New(rand.NewSource(5)), 8, 4, 4, 0.5)
	v := Encode(c, xform.AxisZ)
	defer func() {
		if recover() == nil {
			t.Fatal("DecodeLine with wrong dst length did not panic")
		}
	}()
	v.DecodeLine(0, 0, make([]classify.Voxel, 7))
}

func TestScanlineIDLayout(t *testing.T) {
	c := randomClassified(rand.New(rand.NewSource(6)), 4, 3, 5, 0.5)
	v := Encode(c, xform.AxisZ)
	if v.ScanlineID(0, 0) != 0 || v.ScanlineID(1, 0) != v.Nj || v.ScanlineID(0, 1) != 1 {
		t.Fatal("scanline layout is not slice-major")
	}
	if v.ScanlineID(v.Nk-1, v.Nj-1) != v.Nk*v.Nj-1 {
		t.Fatal("last scanline id wrong")
	}
}

// referenceEncode is the oracle for the encoder: one scanline at a time in
// scanline order, gathered voxel by voxel through xform.ObjectIndex, every
// array grown by append while the run headers are walked; the pair index
// from its definition, voxel by voxel, rather than by merging spans.
func referenceEncode(c *classify.Classified, axis xform.Axis) *Volume {
	ni, nj, nk := xform.PermutedDims(axis, c.Nx, c.Ny, c.Nz)
	v := &Volume{Axis: axis, Ni: ni, Nj: nj, Nk: nk, MinOpacity: c.MinOpacity,
		RunLens: []uint16{}, Vox: []classify.Voxel{},
		SpanLo: []int32{}, SpanCnt: []int32{}, SpanVox: []int32{}, Pairs: []PairComp{}}
	for k := 0; k < nk; k++ {
		for j := 0; j < nj; j++ {
			v.RunOff = append(v.RunOff, int32(len(v.RunLens)))
			v.VoxOff = append(v.VoxOff, int32(len(v.Vox)))
			v.SpanOff = append(v.SpanOff, int32(len(v.SpanLo)))
			for i := 0; i < ni; {
				t := i
				for t < ni && c.Transparent(c.At(xform.ObjectIndex(axis, t, j, k))) {
					t++
				}
				o := t
				vox := int32(len(v.Vox))
				for o < ni && !c.Transparent(c.At(xform.ObjectIndex(axis, o, j, k))) {
					v.Vox = append(v.Vox, c.At(xform.ObjectIndex(axis, o, j, k)))
					o++
				}
				v.RunLens = append(v.RunLens, uint16(t-i), uint16(o-t))
				if o > t {
					v.SpanLo = append(v.SpanLo, int32(t))
					v.SpanCnt = append(v.SpanCnt, int32(o-t))
					v.SpanVox = append(v.SpanVox, vox)
				}
				i = o
			}
			v.MaxLineRuns = max(v.MaxLineRuns, len(v.RunLens)-int(v.RunOff[len(v.RunOff)-1]))
		}
	}
	v.RunOff = append(v.RunOff, int32(len(v.RunLens)))
	v.VoxOff = append(v.VoxOff, int32(len(v.Vox)))
	v.SpanOff = append(v.SpanOff, int32(len(v.SpanLo)))

	// Pair (s, s+1) covers voxel position x in [-1, ni) when either line is
	// non-transparent at x or x+1: that is the union of [lo-1, lo+cnt) over
	// both lines' spans. Its components are the maximal covered runs; a
	// line's spans before a component are those with lo-1 < Lo.
	for k := 0; k < nk; k++ {
		for j := 0; j < nj; j++ {
			v.PairOff = append(v.PairOff, int32(len(v.Pairs)))
			if j == nj-1 {
				continue
			}
			opaque := func(line, x int) bool {
				return x >= 0 && x < ni && !c.Transparent(c.At(xform.ObjectIndex(axis, x, line, k)))
			}
			covered := func(x int) bool {
				return opaque(j, x) || opaque(j, x+1) || opaque(j+1, x) || opaque(j+1, x+1)
			}
			before := func(s, lo int) (n int32) {
				for _, sl := range v.SpanLo[v.SpanOff[s]:v.SpanOff[s+1]] {
					if int(sl)-1 < lo {
						n++
					}
				}
				return n
			}
			for x := -1; x < ni; x++ {
				if !covered(x) {
					continue
				}
				lo := x
				for x < ni && covered(x) {
					x++
				}
				s := k*nj + j
				v.Pairs = append(v.Pairs, PairComp{Lo: int32(lo), Hi: int32(x), S0: before(s, lo), S1: before(s+1, lo)})
			}
		}
	}
	v.PairOff = append(v.PairOff, int32(len(v.Pairs)))
	return v
}

// firstDifferingField names the first field of Volume on which a and b
// disagree, or returns "" when they are deeply equal.
func firstDifferingField(a, b *Volume) string {
	va, vb := reflect.ValueOf(*a), reflect.ValueOf(*b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return va.Type().Field(i).Name
		}
	}
	return ""
}

// TestEncodeParallelBitIdentical compares every field of the encoding with
// the oracle's, on shapes that leave partial gather tiles on every axis,
// at worker counts from serial to more than there are slices.
func TestEncodeParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][3]int{{9, 7, 5}, {16, 16, 16}, {5, 3, 11}, {1, 1, 1}, {2, 33, 3}, {40, 2, 19}, {37, 18, 21}} {
		for _, minOp := range []uint8{4, 0, 120, 255} {
			c := randomClassified(rng, dims[0], dims[1], dims[2], 0.3)
			c.MinOpacity = minOp
			for _, axis := range []xform.Axis{xform.AxisX, xform.AxisY, xform.AxisZ} {
				want := referenceEncode(c, axis)
				for _, procs := range []int{1, 2, 3, want.Nk, want.Nk + 5} {
					if f := firstDifferingField(EncodeParallel(c, axis, procs), want); f != "" {
						t.Fatalf("dims=%v minOpacity=%d axis=%v procs=%d: %s differs from the reference",
							dims, minOp, axis, procs, f)
					}
				}
				if f := firstDifferingField(Encode(c, axis), want); f != "" {
					t.Fatalf("dims=%v minOpacity=%d axis=%v: Encode's %s differs from the reference", dims, minOp, axis, f)
				}
			}
		}
	}
}

// TestEncodeRefusesLinesBeyondUint16 pins the run-length guard on the one
// entry point both Encode and EncodeParallel go through: a 65 536-voxel
// scanline cannot be described by uint16 run lengths.
func TestEncodeRefusesLinesBeyondUint16(t *testing.T) {
	c := &classify.Classified{Nx: 0x10000, Ny: 2, Nz: 2,
		Voxels: make([]classify.Voxel, 0x10000*2*2), MinOpacity: 4}
	for _, procs := range []int{1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("procs=%d: a 65536-voxel scanline was encoded", procs)
				}
			}()
			EncodeParallel(c, xform.AxisZ, procs)
		}()
	}
	c.Nx, c.Ny = 2, 0x10000 // the other axes' scanlines are 2 and 65536 long
	if v := EncodeParallel(c, xform.AxisZ, 2); len(v.Vox) != 0 {
		t.Fatalf("all-air volume stored %d voxels", len(v.Vox))
	}
}

func TestEncodeParallelPhantom(t *testing.T) {
	c := classify.Classify(vol.MRIBrain(32), classify.Options{})
	want := Encode(c, xform.AxisZ)
	got := EncodeParallel(c, xform.AxisZ, 8)
	line1 := make([]classify.Voxel, want.Ni)
	line2 := make([]classify.Voxel, got.Ni)
	for k := 0; k < want.Nk; k++ {
		for j := 0; j < want.Nj; j++ {
			want.DecodeLine(k, j, line1)
			got.DecodeLine(k, j, line2)
			for i := range line1 {
				if line1[i] != line2[i] {
					t.Fatalf("decode differs at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}
