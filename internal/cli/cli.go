// Package cli holds flag plumbing shared by the commands in cmd/: both
// shearwarp (one-shot renders) and shearwarpd (the render service) select
// their input volume the same way, so the flags and their resolution live
// here once.
package cli

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"shearwarp"
	"shearwarp/internal/vol"
)

// VolumeFlags is the volume-selection flag set shared by the commands:
// a synthetic phantom (-kind, -size) or a .vol file (-in, which wins).
type VolumeFlags struct {
	Kind string
	Size int
	In   string
}

// Register declares the flags on fs with the names and defaults the
// shearwarp command has always used.
func (vf *VolumeFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&vf.Kind, "kind", "mri", "phantom kind when no -in: mri | ct")
	fs.IntVar(&vf.Size, "size", 64, "phantom size")
	fs.StringVar(&vf.In, "in", "", "input .vol file (overrides -kind/-size)")
}

// Load resolves the flags into a volume and the transfer function it
// classifies with by default (CT phantoms get the bone transfer, anything
// else the MRI one — matching the phantom constructors in the root
// package).
func (vf *VolumeFlags) Load() (*vol.Volume, shearwarp.Transfer, error) {
	if vf.In != "" {
		f, err := os.Open(vf.In)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		v, err := vol.ReadFrom(f)
		if err != nil {
			return nil, 0, err
		}
		tf := shearwarp.TransferMRI
		if vf.Kind == "ct" {
			tf = shearwarp.TransferCT
		}
		return v, tf, nil
	}
	if vf.Kind == "ct" {
		return vol.CTHead(vf.Size), shearwarp.TransferCT, nil
	}
	return vol.MRIBrain(vf.Size), shearwarp.TransferMRI, nil
}

// ModeFlag is the render-mode selection shared by the commands: shearwarp
// renders one-shot frames in the chosen mode, shearwarpd uses it as the
// default for requests that do not pass mode=; both must reject a typo
// with the same typed error before doing any work.
type ModeFlag struct {
	Name string
	Iso  int
}

// Register declares the -mode and -iso flags on fs.
func (mf *ModeFlag) Register(fs *flag.FlagSet) {
	fs.StringVar(&mf.Name, "mode", "composite",
		"render mode: composite | mip | iso")
	fs.IntVar(&mf.Iso, "iso", 0,
		"isosurface density threshold 1-255 (0 = default 128; iso mode only)")
}

// Mode resolves the flags. Unknown mode names surface the renderer's typed
// *shearwarp.UnknownModeError so commands can exit 2 with its message; an
// out-of-range threshold is rejected the same way a bad flag value is.
func (mf *ModeFlag) Mode() (shearwarp.Mode, uint8, error) {
	m, err := shearwarp.ParseMode(mf.Name)
	if err != nil {
		return 0, 0, err
	}
	if mf.Iso < 0 || mf.Iso > 255 {
		return 0, 0, fmt.Errorf("bad -iso %d: threshold must be in 0-255", mf.Iso)
	}
	return m, uint8(mf.Iso), nil
}

// Name returns a short name for the selected volume: the input file's
// base name (without extension) or the phantom kind.
func (vf *VolumeFlags) Name() string {
	if vf.In != "" {
		base := filepath.Base(vf.In)
		return strings.TrimSuffix(base, filepath.Ext(base))
	}
	if vf.Kind == "ct" {
		return "ct"
	}
	return "mri"
}
