// Package cli holds plumbing shared by the commands in cmd/: volume and
// mode selection (shearwarp, shearwarpd) and the daemons' serve-and-drain
// loop.
package cli

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
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

// RegisterMode declares -mode and -iso on fs, bound straight into mode
// and iso: shearwarp renders one-shot frames in the chosen mode,
// shearwarpd uses it as the default for requests that do not pass mode=.
// A typo'd mode fails Parse with the message of the renderer's
// *shearwarp.UnknownModeError.
func RegisterMode(fs *flag.FlagSet, mode *shearwarp.Mode, iso *uint8) {
	fs.Func("mode", "render mode: composite | mip | iso", func(s string) (err error) {
		*mode, err = shearwarp.ParseMode(s)
		return err
	})
	fs.Lookup("mode").DefValue = mode.String()
	fs.Func("iso", "isosurface density threshold 1-255 (0 = default 128; iso mode only)", func(s string) error {
		n, err := strconv.ParseUint(s, 10, 8)
		if err != nil {
			return fmt.Errorf("threshold must be in 0-255")
		}
		*iso = uint8(n)
		return nil
	})
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
