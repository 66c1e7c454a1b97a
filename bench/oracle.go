package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"image"
	"image/png"
	"sync"

	"shearwarp"
	"shearwarp/internal/img"
)

// Correctness is part of the run. Setup renders every (scene, viewpoint)
// once with Algorithm: Serial into an oracle; every timed frame is hashed
// and compared with it. Frames are compared in one canonical form — the
// bytes of their binary PPM — so a library frame, a PPM body and a decoded
// PNG body all meet the same oracle entry.

var hashSeed = maphash.MakeSeed()

func hashBytes(b []byte) uint64 { return maphash.Bytes(hashSeed, b) }

// ppmBuf holds a frame's PPM bytes in a reused buffer.
type ppmBuf struct{ b bytes.Buffer }

// frame reads a library frame out through the public Image surface, as a
// program that keeps its frames does, and hashes the bytes. A failed
// write hashes short and so differs from the oracle.
func (p *ppmBuf) frame(im *shearwarp.Image) uint64 {
	p.b.Reset()
	im.WritePPM(&p.b)
	return hashBytes(p.b.Bytes())
}

// final hashes an internal final image (the layer probes hold those).
func (p *ppmBuf) final(f *img.Final) uint64 {
	p.b.Reset()
	f.WritePPM(&p.b)
	return hashBytes(p.b.Bytes())
}

// decoded hashes a decoded image pixel for pixel, so a legitimately
// different PNG encoder stays correct.
func (p *ppmBuf) decoded(m image.Image) uint64 {
	r := m.Bounds()
	p.b.Reset()
	fmt.Fprintf(&p.b, "P6\n%d %d\n255\n", r.Dx(), r.Dy())
	for y := r.Min.Y; y < r.Max.Y; y++ {
		for x := r.Min.X; x < r.Max.X; x++ {
			cr, cg, cb, _ := m.At(x, y).RGBA()
			p.b.Write([]byte{uint8(cr >> 8), uint8(cg >> 8), uint8(cb >> 8)})
		}
	}
	return hashBytes(p.b.Bytes())
}

// buildOracle renders every viewpoint of every scene with the serial
// renderer. It uses its own preprocessing, so the setup that is timed
// afterwards starts cold.
func buildOracle(scenes []*scene, procs int) error {
	var pb ppmBuf
	for _, s := range scenes {
		v := s.vol
		pv, err := shearwarp.PrepareVolumeMode(v.Data, v.Nx, v.Ny, v.Nz, s.transfer(), s.mode, 0, procs, nil)
		if err != nil {
			return err
		}
		re, err := pv.NewRenderer(shearwarp.Config{Algorithm: shearwarp.Serial})
		if err != nil {
			return err
		}
		s.oracle = make([]uint64, len(s.views))
		for i, vw := range s.views {
			im, _, err := re.RenderCtx(context.Background(), vw[0], vw[1])
			if err != nil {
				return fmt.Errorf("oracle %s view %d: %w", s.name, i, err)
			}
			if im.NonBlackPixels() == 0 {
				return fmt.Errorf("oracle %s view %d: black frame", s.name, i)
			}
			s.oracle[i] = pb.frame(im)
		}
		re.Close()
	}
	return nil
}

// verifier checks service response bodies. Bodies are hashed in the load
// loop; a PPM body is decided at once, a PNG body is kept the first time
// its hash is seen and decoded after the phase, one body per distinct hash.
type verifier struct {
	scenes []*scene
	png    bool

	mu   sync.Mutex
	seen map[bodyKey]*bodyRec
}

type bodyKey struct {
	req  request
	hash uint64
}

type bodyRec struct {
	count   int
	body    []byte // PNG only: kept until resolve decodes it
	decided bool
	ok      bool
}

func newVerifier(w *workload) *verifier {
	return &verifier{scenes: w.scenes, png: w.format == "png", seen: make(map[bodyKey]*bodyRec)}
}

// observe records one response body for a request.
func (v *verifier) observe(r request, body []byte) {
	k := bodyKey{r, hashBytes(body)}
	v.mu.Lock()
	defer v.mu.Unlock()
	rec := v.seen[k]
	if rec == nil {
		rec = &bodyRec{}
		if v.png {
			rec.body = bytes.Clone(body)
		} else {
			rec.decided, rec.ok = true, k.hash == v.scenes[r.scene].oracle[r.view]
		}
		v.seen[k] = rec
	}
	rec.count++
}

// resolve decodes the pending bodies and returns how many observed
// responses differ from the oracle.
func (v *verifier) resolve() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	var pb ppmBuf
	bad := 0
	for k, rec := range v.seen {
		if !rec.decided {
			m, err := png.Decode(bytes.NewReader(rec.body))
			rec.decided, rec.body = true, nil
			rec.ok = err == nil && pb.decoded(m) == v.scenes[k.req.scene].oracle[k.req.view]
		}
		if !rec.ok {
			bad += rec.count
		}
	}
	return bad
}
