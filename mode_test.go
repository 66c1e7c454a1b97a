package shearwarp

// Render-mode matrix tests: the mode axis (composite, MIP, isosurface)
// against three invariants.
//
//  1. Pre-PR pinning: ModeComposite output is byte-identical to the
//     images the serial renderer produced before the mode axis existed —
//     pinned as FNV-1a hashes captured from the pre-mode tree, so adding
//     modes provably changed nothing about the default path.
//  2. Cross-algorithm identity per mode: Serial, OldParallel and
//     NewParallel produce byte-identical images in every mode. For MIP
//     this is structural (float max is order-independent, so scanline
//     ownership does not matter); for isosurface it follows from the
//     compositing path being the ordinary one over a differently
//     classified volume.
//  3. Oracle agreement per mode: the shear-warp image stays inside an
//     empirically calibrated envelope of the image-order ray-casting
//     oracle, with per-mode budgets (see modeBudgets below).
//
// Budget calibration (MRI and CT phantoms at 64 voxels, the three
// viewpoints below — one per principal axis; worst observed over both
// phantoms, budgets set with roughly 50-100% headroom; the composite
// budget is the one TestDifferentialShearWarpVsRaycast calibrated over
// six viewpoints, kept identical here):
//
//	mode        metric               worst observed   budget
//	composite   silhouette mismatch  0.039            0.08
//	composite   RMSE                 47.6             65
//	composite   max channel diff     154              200
//	composite   differing fraction   0.464            0.70
//	mip         silhouette mismatch  0.007            0.015
//	mip         RMSE                 19.0             30
//	mip         max channel diff     122              160
//	mip         differing fraction   0.456            0.60
//	iso         silhouette mismatch  0.0163           0.03
//	iso         RMSE                 40.4             55
//	iso         max channel diff     175              215
//	iso         differing fraction   0.384            0.55
//
// Why the shapes differ: MIP agrees much more tightly than composite on
// every structural metric — a per-ray max is far less sensitive to
// resampling filter width than an integral, and with no saturation there
// is no early-termination divergence — but still differs on nearly half
// the pixels, because every faint fringe pixel keeps its slightly
// different maximum instead of saturating to a shared value; hence a
// tight RMSE/silhouette budget and a loose differing-fraction one.
// Isosurface shows the largest single-channel spikes of the three:
// binary opacity turns a half-voxel silhouette disagreement into a
// full-brightness pixel difference, so maxAbs runs close to composite's
// while the silhouette budget — the structural invariant — is tighter
// than composite's (a hard surface has no soft translucent fringe).

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"shearwarp/internal/classify"
	"shearwarp/internal/img"
	"shearwarp/internal/newalg"
	"shearwarp/internal/oldalg"
	"shearwarp/internal/render"
	"shearwarp/internal/rendermode"
	"shearwarp/internal/rle"
	"shearwarp/internal/vol"
	"shearwarp/internal/volcache"
)

// pixelHash folds a final image's bytes into a 64-bit FNV-1a digest —
// the same fold the pre-mode pin hashes were captured with.
func pixelHash(f *img.Final) uint64 {
	h := rle.Seed
	for _, px := range f.Pix {
		h = rle.HashUint64(h, uint64(px))
	}
	return h
}

// TestCompositeGoldenPinned pins the serial composite renderer to image
// hashes captured from the tree immediately before the render-mode axis
// was introduced. A mismatch here means the mode plumbing changed the
// default mode's pixels — the one thing it must never do.
func TestCompositeGoldenPinned(t *testing.T) {
	views := [][2]float64{{30, 15}, {100, -35}, {200, 65}}
	pins := map[bool][3]uint64{
		false: {0xa14e6366d1095286, 0x4ffa45b9e2f51a69, 0xe3cb4f4c8a88d3db},
		true:  {0x62f402bef53027f8, 0x8ce38a773073fcf8, 0x835ee86e44f050be},
	}
	for _, correct := range []bool{false, true} {
		r := render.New(vol.MRIBrain(48), render.Options{OpacityCorrection: correct})
		for i, vw := range views {
			out, _ := r.RenderSerial(vw[0]*math.Pi/180, vw[1]*math.Pi/180)
			if got, want := pixelHash(out), pins[correct][i]; got != want {
				t.Errorf("correct=%v view %v: pixel hash %#016x, want pinned %#016x",
					correct, vw, got, want)
			}
		}
	}
}

// modeOptions returns the internal render options selecting a mode the
// way the public Config does: isosurface swaps in the threshold transfer
// at classification time, MIP only steers the compositing kernel.
func modeOptions(m rendermode.Mode) render.Options {
	opt := render.Options{Mode: m, PreprocProcs: 4}
	if m == rendermode.Isosurface {
		opt.Transfer = classify.IsoTransfer(classify.DefaultIsoThreshold)
	}
	return opt
}

// TestGoldenEquivalenceModes extends the golden-equivalence invariant to
// the non-composite modes: for MIP and isosurface, OldParallel and
// NewParallel must reproduce the serial image byte for byte at every
// tested viewpoint. (Composite is covered by TestGoldenEquivalence.)
func TestGoldenEquivalenceModes(t *testing.T) {
	views := [][2]float64{{30, 15}, {100, -35}, {200, 65}}
	for _, m := range []rendermode.Mode{rendermode.MIP, rendermode.Isosurface} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			r := render.New(vol.MRIBrain(48), modeOptions(m))
			nr := newalg.NewRenderer(r, newalg.Config{Procs: 4})
			for _, vw := range views {
				yaw := vw[0] * math.Pi / 180
				pitch := vw[1] * math.Pi / 180
				want, _ := r.RenderSerial(yaw, pitch)
				if want.NonBlackCount() == 0 {
					t.Fatalf("view %v: serial %s render is all black", vw, m)
				}
				oldRes := oldalg.Render(r, yaw, pitch, oldalg.Config{Procs: 4})
				if !img.Equal(want, oldRes.Out) {
					d := img.Compare(want, oldRes.Out)
					t.Errorf("view %v: OldParallel %s differs from Serial: %d pixels, max |Δ| %d",
						vw, m, d.Differs, d.MaxAbs)
				}
				newRes := nr.RenderFrame(yaw, pitch)
				if !img.Equal(want, newRes.Out) {
					d := img.Compare(want, newRes.Out)
					t.Errorf("view %v: NewParallel %s differs from Serial: %d pixels, max |Δ| %d",
						vw, m, d.Differs, d.MaxAbs)
				}
			}
		})
	}
}

// modeBudgets is the per-mode agreement envelope against the ray-casting
// oracle. See the calibration table in the file comment.
var modeBudgets = map[Mode]diffBudget{
	ModeComposite:  {maxSilhouette: 0.08, maxRMSE: 65, maxAbs: 200, maxDiffFrac: 0.70},
	ModeMIP:        {maxSilhouette: 0.015, maxRMSE: 30, maxAbs: 160, maxDiffFrac: 0.60},
	ModeIsosurface: {maxSilhouette: 0.03, maxRMSE: 55, maxAbs: 215, maxDiffFrac: 0.55},
}

// TestModeMatrixDifferential drives the full mode × viewpoint ×
// algorithm matrix: in every cell the three shear-warp algorithms must
// agree byte for byte, and the (shared) shear-warp image must sit inside
// the mode's calibrated envelope of the ray-casting oracle.
func TestModeMatrixDifferential(t *testing.T) {
	// One viewpoint per principal axis (z, x, y).
	views := [][2]float64{{20, 10}, {50, 15}, {10, 70}}
	const size = 64
	for _, phantom := range []string{"mri", "ct"} {
		phantom := phantom
		for _, mode := range []Mode{ModeComposite, ModeMIP, ModeIsosurface} {
			mode := mode
			t.Run(phantom+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				mk := func(alg Algorithm) *Renderer {
					cfg := Config{Algorithm: alg, Mode: mode, Procs: 4}
					if phantom == "ct" {
						return NewCTPhantom(size, cfg)
					}
					return NewMRIPhantom(size, cfg)
				}
				serial, old, nw, oracle := mk(Serial), mk(OldParallel), mk(NewParallel), mk(RayCast)
				defer old.Close()
				defer nw.Close()
				budget := modeBudgets[mode]
				for _, v := range views {
					ims, _ := serial.Render(v[0], v[1])
					imo, _ := old.Render(v[0], v[1])
					imn, _ := nw.Render(v[0], v[1])
					imr, _ := oracle.Render(v[0], v[1])
					if ims.NonBlackPixels() == 0 {
						t.Fatalf("view %v: serial image is all black", v)
					}
					if !bytes.Equal(ims.f.Pix, imo.f.Pix) {
						t.Errorf("view %v: OldParallel differs from Serial", v)
					}
					if !bytes.Equal(ims.f.Pix, imn.f.Pix) {
						t.Errorf("view %v: NewParallel differs from Serial", v)
					}
					sil := silhouetteMismatch(imn.f, imr.f)
					d := img.Compare(imn.f, imr.f)
					frac := float64(d.Differs) / float64(imn.f.W*imn.f.H)
					t.Logf("view %5.0f/%-4.0f  sil %.4f  rmse %6.3f  max %3d  differs %5.3f",
						v[0], v[1], sil, d.RMSE, d.MaxAbs, frac)
					if sil > budget.maxSilhouette {
						t.Errorf("view %v: silhouette mismatch %.4f exceeds budget %.4f", v, sil, budget.maxSilhouette)
					}
					if d.RMSE > budget.maxRMSE {
						t.Errorf("view %v: RMSE %.3f exceeds budget %.3f", v, d.RMSE, budget.maxRMSE)
					}
					if d.MaxAbs > budget.maxAbs {
						t.Errorf("view %v: max channel diff %d exceeds budget %d", v, d.MaxAbs, budget.maxAbs)
					}
					if frac > budget.maxDiffFrac {
						t.Errorf("view %v: differing-pixel fraction %.3f exceeds budget %.3f", v, frac, budget.maxDiffFrac)
					}
				}
			})
		}
	}
}

// TestModeParseRoundTrip pins the mode names the flag and query-parameter
// layers accept.
func TestModeParseRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"", ModeComposite, true},
		{"composite", ModeComposite, true},
		{"mip", ModeMIP, true},
		{"iso", ModeIsosurface, true},
		{"isosurface", ModeIsosurface, true},
		{"MIP", 0, false},
		{"xray", 0, false},
	}
	for _, c := range cases {
		m, err := ParseMode(c.in)
		if c.ok {
			if err != nil || m != c.want {
				t.Errorf("ParseMode(%q) = %v, %v; want %v, nil", c.in, m, err, c.want)
			}
			continue
		}
		var um *UnknownModeError
		if err == nil || !errors.As(err, &um) {
			t.Errorf("ParseMode(%q): error %v is not *UnknownModeError", c.in, err)
		} else if um.Value != c.in {
			t.Errorf("ParseMode(%q): error records value %q", c.in, um.Value)
		}
	}
	for _, m := range []Mode{ModeComposite, ModeMIP, ModeIsosurface} {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
}

// TestVolumeModeKeys pins the cache-key contract of the mode axis:
// composite reproduces the legacy fingerprint exactly, every mode gets a
// distinct key, and the isosurface threshold participates (with 0
// meaning the default threshold).
func TestVolumeModeKeys(t *testing.T) {
	v := vol.MRIBrain(16)
	legacy := VolumeKey(v.Data, v.Nx, v.Ny, v.Nz)
	keyOf := func(m Mode, iso uint8) string {
		return VolumeModeKey(v.Data, v.Nx, v.Ny, v.Nz, m, iso)
	}
	if got := keyOf(ModeComposite, 0); got != legacy {
		t.Errorf("composite mode key %s != legacy key %s", got, legacy)
	}
	keys := map[string]string{legacy: "composite"}
	for name, k := range map[string]string{
		"mip":     keyOf(ModeMIP, 0),
		"iso-128": keyOf(ModeIsosurface, 128),
		"iso-90":  keyOf(ModeIsosurface, 90),
	} {
		if prev, dup := keys[k]; dup {
			t.Errorf("mode %s key collides with %s: %s", name, prev, k)
		}
		keys[k] = name
	}
	// 0 and the explicit default threshold are the same preprocessing.
	if keyOf(ModeIsosurface, 0) != keyOf(ModeIsosurface, classify.DefaultIsoThreshold) {
		t.Error("iso threshold 0 does not alias the default threshold key")
	}
	// MIP ignores the threshold (its preprocessing does not use it).
	if keyOf(ModeMIP, 0) != keyOf(ModeMIP, 90) {
		t.Error("MIP key varies with the unused iso threshold")
	}
}

// TestVolcacheCrossMode prepares the same volume in all three modes
// against one shared cache and checks the entries never alias: each mode
// classifies once (three builds, no cross-mode hits) and appears as its
// own cache tenant.
func TestVolcacheCrossMode(t *testing.T) {
	v := vol.MRIBrain(24)
	cache := volcache.New(0)
	seen := map[string]bool{}
	for _, mode := range []Mode{ModeComposite, ModeMIP, ModeIsosurface} {
		pv, err := PrepareVolumeMode(v.Data, v.Nx, v.Ny, v.Nz, TransferMRI, mode, 0, 2, cache)
		if err != nil {
			t.Fatalf("mode %s: PrepareVolumeMode: %v", mode, err)
		}
		if seen[pv.Key()] {
			t.Fatalf("mode %s: fingerprint %s already used by another mode", mode, pv.Key())
		}
		seen[pv.Key()] = true
		r, err := pv.NewRenderer(Config{Algorithm: NewParallel, Procs: 2})
		if err != nil {
			t.Fatalf("mode %s: NewRenderer: %v", mode, err)
		}
		if im, _ := r.Render(30, 15); im.NonBlackPixels() == 0 {
			t.Errorf("mode %s: rendered image is all black", mode)
		}
		r.Close()
	}
	stats := cache.Snapshot()
	// Three modes, three classifications: sharing any would show as fewer
	// builds; aliasing keys would also corrupt images, but the count is
	// the direct signal.
	if stats.Builds < 3 {
		t.Errorf("cache builds = %d, want >= 3 (one classification per mode)", stats.Builds)
	}
	tenants := cache.Tenants()
	if len(tenants) != 3 {
		t.Errorf("cache tenants = %d, want 3 (one per mode)", len(tenants))
	}
	for _, ten := range tenants {
		if !seen[ten.Volume] {
			t.Errorf("cache tenant %s is not one of the prepared mode fingerprints", ten.Volume)
		}
	}
}
