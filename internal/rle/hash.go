package rle

import (
	"encoding/binary"
	"fmt"
)

// Cache-key hashing. The render service caches classified volumes and
// their per-axis run-length encodings; both kinds of entry are keyed by a
// content fingerprint of the raw volume so that re-uploading identical
// data (or re-registering the same phantom) hits the cache regardless of
// the name it arrives under. An FNV-1a-style fold over the dimensions and
// samples is enough: the keys only need to distinguish volumes, not resist
// an adversary, and a 64-bit digest over megabyte inputs makes accidental
// collisions vanishingly unlikely.

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// HashBytes folds b into a running 64-bit hash. Start from Seed. It is
// FNV-1a taken eight bytes per multiply (little-endian words, then a byte
// tail), which hashing a whole volume for its cache key needs; the
// multiply only carries upwards, so each word step also folds the high
// half back into the low half. The digest depends on how a stream is split
// across calls; hash a buffer in one call.
func HashBytes(h uint64, b []byte) uint64 {
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * fnvPrime64
		h ^= h >> 32
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// HashUint64 folds one 64-bit value into a running hash, as byte-wise
// FNV-1a over its little-endian bytes (pinned image digests are computed
// through it) — used for dimensions and parameters so that, e.g., a 2x8
// and an 8x2 volume with identical flattened samples still hash
// differently.
func HashUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ v&0xff) * fnvPrime64
		v >>= 8
	}
	return h
}

// Seed is the FNV-1a offset basis; every key derivation starts from it.
const Seed uint64 = fnvOffset64

// VolumeKey fingerprints a raw 8-bit volume (dimensions plus samples in
// storage order) as a fixed-width hex string, the volume component of the
// render service's cache keys.
func VolumeKey(data []uint8, nx, ny, nz int) string {
	return VolumeModeKey(data, nx, ny, nz, 0, 0)
}

// modeKeyTag separates the mode parameters from the sample stream in the
// fingerprint so a data suffix can never alias a mode encoding.
const modeKeyTag = 0x65646f6d // "mode"

// VolumeModeKey fingerprints a raw volume together with its render-mode
// preprocessing parameters (the rendermode.Mode ordinal and, for the
// isosurface mode, its density threshold). Distinct modes always yield
// distinct keys, so the preprocessing cache can never serve one mode's
// classification or encodings to another; mode 0 (composite) folds nothing
// extra and reproduces the legacy VolumeKey exactly, keeping pre-existing
// fingerprints stable.
func VolumeModeKey(data []uint8, nx, ny, nz int, mode, isoThreshold uint8) string {
	h := HashUint64(Seed, uint64(nx))
	h = HashUint64(h, uint64(ny))
	h = HashUint64(h, uint64(nz))
	h = HashBytes(h, data)
	if mode != 0 {
		h = HashUint64(h, modeKeyTag)
		h = HashUint64(h, uint64(mode))
		h = HashUint64(h, uint64(isoThreshold))
	}
	return fmt.Sprintf("%016x", h)
}

// Fingerprint digests an encoded volume's structure and payload: the
// permuted dimensions, opacity threshold, run headers and packed voxels.
// Two encodings of the same classified volume along the same axis always
// agree (Encode and EncodeParallel are bit-identical), so the cache layer
// uses it to assert that a cached encoding really is interchangeable with
// a freshly built one.
func (v *Volume) Fingerprint() uint64 {
	h := HashUint64(Seed, uint64(v.Axis))
	h = HashUint64(h, uint64(v.Ni))
	h = HashUint64(h, uint64(v.Nj))
	h = HashUint64(h, uint64(v.Nk))
	h = HashUint64(h, uint64(v.MinOpacity))
	var buf [8]byte
	for _, r := range v.RunLens {
		binary.LittleEndian.PutUint16(buf[:2], r)
		h = HashBytes(h, buf[:2])
	}
	for _, vx := range v.Vox {
		binary.LittleEndian.PutUint32(buf[:4], vx)
		h = HashBytes(h, buf[:4])
	}
	return h
}

// MemoryBytes estimates the encoding's resident size — the quantity the
// cache's byte budget is accounted in: every array of the encoding, the
// span and line-pair indexes included.
func (v *Volume) MemoryBytes() int64 {
	return int64(len(v.Vox))*4 + int64(len(v.RunLens))*2 +
		int64(len(v.RunOff)+len(v.VoxOff)+len(v.SpanOff)+len(v.PairOff))*4 +
		int64(len(v.SpanLo)+len(v.SpanCnt)+len(v.SpanVox))*4 +
		int64(len(v.Pairs))*16
}
