package rle

import (
	"reflect"
	"testing"

	"shearwarp/internal/classify"
	"shearwarp/internal/vol"
	"shearwarp/internal/xform"
)

func TestVolumeKeyDeterministicAndSensitive(t *testing.T) {
	v := vol.MRIBrain(16)
	k1 := VolumeKey(v.Data, v.Nx, v.Ny, v.Nz)
	k2 := VolumeKey(v.Data, v.Nx, v.Ny, v.Nz)
	if k1 != k2 {
		t.Fatalf("key not deterministic: %s vs %s", k1, k2)
	}
	if len(k1) != 16 {
		t.Fatalf("key %q is not 16 hex chars", k1)
	}

	// Flipping a single voxel must change the key.
	mut := make([]uint8, len(v.Data))
	copy(mut, v.Data)
	mut[len(mut)/2] ^= 1
	if VolumeKey(mut, v.Nx, v.Ny, v.Nz) == k1 {
		t.Fatal("single-voxel flip did not change the key")
	}

	// Same flattened bytes under different dimensions must differ: the
	// dimensions are folded in before the samples.
	flat := make([]uint8, 2*8)
	for i := range flat {
		flat[i] = uint8(i)
	}
	if VolumeKey(flat, 2, 8, 1) == VolumeKey(flat, 8, 2, 1) {
		t.Fatal("2x8 and 8x2 volumes share a key")
	}
}

func TestFingerprintMatchesAcrossEncoders(t *testing.T) {
	c := classify.Classify(vol.MRIBrain(24), classify.Options{})
	for _, axis := range []xform.Axis{xform.AxisX, xform.AxisY, xform.AxisZ} {
		serial := Encode(c, axis)
		parallel := EncodeParallel(c, axis, 4)
		if serial.Fingerprint() != parallel.Fingerprint() {
			t.Errorf("axis %v: serial and parallel encodings fingerprint differently", axis)
		}
		if serial.MemoryBytes() <= 0 {
			t.Errorf("axis %v: non-positive memory estimate", axis)
		}
	}
	// Different axes of a non-symmetric view of the data should not collide.
	x, z := Encode(c, xform.AxisX), Encode(c, xform.AxisZ)
	if x.Fingerprint() == z.Fingerprint() {
		t.Error("x and z encodings share a fingerprint")
	}
}

// TestMemoryBytesCountsEveryArray holds MemoryBytes — what the volcache
// byte budget charges an encoding — to the size of every slice field of
// Volume, so an index added to the encoding cannot go unaccounted. The
// line-pair index (16 B per component, about one component per span) is
// why the encoding bytes the cache and ./bench report (volcache.bytes,
// rle.bytes) grew when it was added: 1.37 → 1.75 MB for the 128³ CT
// phantom's encoding, 16.4 → 17.8 MB for the 256³ MRI one.
func TestMemoryBytesCountsEveryArray(t *testing.T) {
	c := classify.Classify(vol.MRIBrain(24), classify.Options{})
	for _, axis := range []xform.Axis{xform.AxisX, xform.AxisY, xform.AxisZ} {
		v := Encode(c, axis)
		var want int64
		rv := reflect.ValueOf(*v)
		for i := 0; i < rv.NumField(); i++ {
			if f := rv.Field(i); f.Kind() == reflect.Slice {
				want += int64(f.Len()) * int64(f.Type().Elem().Size())
			}
		}
		if len(v.Pairs) == 0 {
			t.Fatalf("axis %v: no line-pair components", axis)
		}
		if got := v.MemoryBytes(); got != want {
			t.Errorf("axis %v: MemoryBytes %d, slice fields hold %d bytes", axis, got, want)
		}
	}
}

// TestHashBytesEveryByteCounts covers the word path, the byte tail and
// their seam: at every length up to five words, changing any one byte or
// exchanging two neighbouring bytes changes the digest.
func TestHashBytesEveryByteCounts(t *testing.T) {
	for n := 1; n <= 40; n++ {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(31*i + 7)
		}
		want := HashBytes(Seed, buf)
		for i := range buf {
			buf[i] ^= 0x80
			if HashBytes(Seed, buf) == want {
				t.Fatalf("len %d: flipping the top bit of byte %d left the digest unchanged", n, i)
			}
			buf[i] ^= 0x80
			if i+1 < n {
				buf[i], buf[i+1] = buf[i+1], buf[i]
				if HashBytes(Seed, buf) == want {
					t.Fatalf("len %d: exchanging bytes %d and %d left the digest unchanged", n, i, i+1)
				}
				buf[i], buf[i+1] = buf[i+1], buf[i]
			}
		}
	}
}
