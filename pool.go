package shearwarp

// Renderer pooling and shared preprocessing — the substrate of the
// shearwarpd render service. A Renderer renders one frame at a time, so a
// server handling overlapping requests needs several of them; naively
// that would classify and run-length-encode the volume once per renderer,
// which is exactly the per-frame amortization the shear-warp algorithm
// exists to avoid. PreparedVolume shares those view-independent products
// (classification, per-axis RLE encodings) across every renderer built
// from it, routing them through an LRU cache (internal/volcache) so a
// long-running service keeps its hot volumes prepared and ages out cold
// ones. RendererPool then bounds how many renderers exist per volume and
// hands them to requests one at a time.
//
// Types from internal packages (volcache.Cache) appear in a few exported
// signatures; like PhaseBreakdown.Frame, these entry points exist for the
// service and tools inside this module.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"shearwarp/internal/classify"
	"shearwarp/internal/faultinject"
	"shearwarp/internal/render"
	"shearwarp/internal/rendermode"
	"shearwarp/internal/rle"
	"shearwarp/internal/vol"
	"shearwarp/internal/volcache"
	"shearwarp/internal/xform"
)

// VolumeKey fingerprints raw volume data (dimensions plus samples) as the
// volume component of preprocessing cache keys. Identical data always
// yields the same key, whatever name it is registered under.
func VolumeKey(data []uint8, nx, ny, nz int) string {
	return rle.VolumeKey(data, nx, ny, nz)
}

// VolumeModeKey is VolumeKey with the render mode folded in: distinct
// modes yield distinct keys (the preprocessing differs — or must never be
// shared — across modes), and ModeComposite reproduces VolumeKey exactly
// so pre-existing fingerprints stay stable. isoThreshold participates only
// for ModeIsosurface; pass 0 to mean the default threshold.
func VolumeModeKey(data []uint8, nx, ny, nz int, mode Mode, isoThreshold uint8) string {
	var thr uint8
	if mode == ModeIsosurface {
		thr = isoThreshold
		if thr == 0 {
			thr = classify.DefaultIsoThreshold
		}
	}
	return rle.VolumeModeKey(data, nx, ny, nz, uint8(mode), thr)
}

// PreparedVolume is a volume plus the recipe for its view-independent
// preprocessing, shared by every Renderer built from it. The products
// themselves live in an LRU cache keyed by (volume fingerprint, transfer
// function, principal axis); they are immutable once built, so renderers
// sharing them may render concurrently.
type PreparedVolume struct {
	v      *vol.Volume
	key    string
	tf     Transfer
	mode   Mode
	iso    uint8 // effective isosurface threshold (never 0)
	procs  int
	cache  *volcache.Cache
	faults *faultinject.Injector
}

// SetFaultInjector attaches (or, with nil, detaches) a fault injector to
// this volume's preprocessing builds (site "cachebuild"). Call it before
// building renderers.
func (pv *PreparedVolume) SetFaultInjector(in *faultinject.Injector) { pv.faults = in }

// PrepareVolume wraps a raw 8-bit volume (X fastest, as in NewRenderer)
// for shared rendering. procs parallelizes classification and encoding
// builds. cache receives the preprocessing products; nil gets a private
// unbounded cache, which still deduplicates work across the renderers of
// this PreparedVolume.
func PrepareVolume(data []uint8, nx, ny, nz int, transfer Transfer, procs int, cache *volcache.Cache) (*PreparedVolume, error) {
	return PrepareVolumeMode(data, nx, ny, nz, transfer, ModeComposite, 0, procs, cache)
}

// PrepareVolumeMode is PrepareVolume for a specific render mode: the mode
// (and, for ModeIsosurface, the density threshold — 0 selects the default)
// is baked into the prepared preprocessing exactly like the transfer
// function, and into the cache keys, so renderers of different modes never
// share a classification or encoding. Renderers built from the result
// always render with this mode (cfg.Mode is overridden).
func PrepareVolumeMode(data []uint8, nx, ny, nz int, transfer Transfer, mode Mode, isoThr uint8, procs int, cache *volcache.Cache) (*PreparedVolume, error) {
	if len(data) != nx*ny*nz {
		return nil, fmt.Errorf("shearwarp: volume data length %d != %d*%d*%d", len(data), nx, ny, nz)
	}
	if nx < 2 || ny < 2 || nz < 2 {
		return nil, fmt.Errorf("shearwarp: volume too small (%dx%dx%d)", nx, ny, nz)
	}
	if procs < 1 {
		procs = 1
	}
	if cache == nil {
		cache = volcache.New(0)
	}
	iso := isoThr
	if iso == 0 {
		iso = classify.DefaultIsoThreshold
	}
	return &PreparedVolume{
		v:     &vol.Volume{Nx: nx, Ny: ny, Nz: nz, Data: data},
		key:   VolumeModeKey(data, nx, ny, nz, mode, isoThr),
		tf:    transfer,
		mode:  mode,
		iso:   iso,
		procs: procs,
		cache: cache,
	}, nil
}

// Key returns the volume's content fingerprint.
func (pv *PreparedVolume) Key() string { return pv.key }

// TransferFunc returns the transfer function the volume classifies with.
func (pv *PreparedVolume) TransferFunc() Transfer { return pv.tf }

// Mode returns the render mode baked into the prepared preprocessing.
func (pv *PreparedVolume) Mode() Mode { return pv.mode }

// Dims returns the volume dimensions.
func (pv *PreparedVolume) Dims() (nx, ny, nz int) { return pv.v.Nx, pv.v.Ny, pv.v.Nz }

// classified fetches (building on a miss) the classified volume. A build
// failure caches nothing and is retried on the next call (see volcache).
func (pv *PreparedVolume) classified() (*classify.Classified, error) {
	k := volcache.Key{Volume: pv.key, Transfer: pv.tf.String(), Axis: volcache.AxisNone}
	v, err := pv.cache.GetOrBuildE(k, func() (any, int64, error) {
		if err := pv.faults.Error("cachebuild", -1, -1); err != nil {
			return nil, 0, err
		}
		pv.faults.Visit("cachebuild", -1, -1)
		opt := classify.Options{}
		switch {
		case pv.mode == ModeIsosurface:
			opt.Transfer = classify.IsoTransfer(pv.iso)
		case pv.tf == TransferCT:
			opt.Transfer = classify.CTTransfer
		}
		c := classify.ClassifyParallel(pv.v, opt, pv.procs)
		return c, int64(len(c.Voxels)) * 4, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*classify.Classified), nil
}

// encoding fetches (building on a miss) the RLE encoding for one
// principal axis of the given classified volume. It panics on a build
// failure: the call happens lazily inside a frame's setup (through the
// render.Renderer encodeFn), whose panic containment converts it to a
// *render.FrameError with phase "setup".
func (pv *PreparedVolume) encoding(c *classify.Classified, axis xform.Axis) *rle.Volume {
	k := volcache.Key{Volume: pv.key, Transfer: pv.tf.String(), Axis: axis}
	v := pv.cache.GetOrBuild(k, func() (any, int64) {
		if err := pv.faults.Error("cachebuild", -1, int(axis)); err != nil {
			panic(err)
		}
		pv.faults.Visit("cachebuild", -1, int(axis))
		rv := rle.EncodeParallel(c, axis, pv.procs)
		return rv, rv.MemoryBytes()
	})
	return v.(*rle.Volume)
}

// NewRenderer builds a renderer sharing this volume's cached
// preprocessing. cfg.Transfer is overridden by the prepared transfer
// function (it is baked into the cached classification); everything else
// behaves as in NewRenderer. Output images are byte-identical to a
// renderer built directly over the same data and config. It fails if the
// classification build fails (a later call retries the build).
func (pv *PreparedVolume) NewRenderer(cfg Config) (*Renderer, error) {
	cfg.Transfer = pv.tf
	cfg.Mode = pv.mode
	cfg.IsoThreshold = pv.iso
	c, err := pv.classified()
	if err != nil {
		return nil, err
	}
	opt := render.Options{
		OpacityCorrection: cfg.OpacityCorrection,
		PreprocProcs:      cfg.Procs,
		Mode:              rendermode.Mode(cfg.Mode),
	}
	r := render.NewShared(pv.v, c, func(axis xform.Axis) *rle.Volume {
		return pv.encoding(c, axis)
	}, opt)
	return newRendererFrom(r, cfg), nil
}

// ErrPoolClosed is returned by RendererPool.Acquire after Close.
var ErrPoolClosed = errors.New("shearwarp: renderer pool closed")

// RendererPool is a fixed set of Renderers handed to callers one at a
// time, making a set of single-frame renderers safe to drive from
// concurrent requests. Acquire blocks until a renderer is free (or the
// context ends); Release returns it. The pool is safe for concurrent use.
//
// Acquire hands out the most recently released renderer. A renderer's
// images, compositing contexts and parked workers are what a frame wants
// to find warm, so load of concurrency N keeps to N renderers instead of
// rotating through all of them, and the rest never allocate their images.
type RendererPool struct {
	avail chan struct{} // one token per renderer in idle
	done  chan struct{} // closed by Close; unblocks waiting Acquires
	build func() (*Renderer, error)

	mu     sync.Mutex
	idle   []*Renderer // free renderers, most recently released last
	closed bool
}

// NewRendererPool builds size renderers with the given constructor. On
// constructor error the already-built renderers are closed and the error
// returned.
func NewRendererPool(size int, build func() (*Renderer, error)) (*RendererPool, error) {
	if size < 1 {
		size = 1
	}
	p := &RendererPool{
		avail: make(chan struct{}, size),
		done:  make(chan struct{}),
		build: build,
		idle:  make([]*Renderer, 0, size),
	}
	for i := 0; i < size; i++ {
		r, err := build()
		if err != nil {
			for _, r := range p.idle {
				r.Close()
			}
			return nil, fmt.Errorf("shearwarp: building pool renderer %d: %w", i, err)
		}
		p.put(r)
	}
	return p, nil
}

// put makes r the next renderer Acquire hands out.
func (p *RendererPool) put(r *Renderer) {
	p.mu.Lock()
	p.idle = append(p.idle, r)
	p.mu.Unlock()
	p.avail <- struct{}{} // cap == size and Acquire/Release pair up, so never blocks
}

// take pops the most recently released renderer; the caller holds a token.
func (p *RendererPool) take() *Renderer {
	p.mu.Lock()
	n := len(p.idle) - 1
	r := p.idle[n]
	p.idle[n] = nil
	p.idle = p.idle[:n]
	p.mu.Unlock()
	return r
}

// Size returns the pool's renderer count.
func (p *RendererPool) Size() int { return cap(p.avail) }

// Idle returns how many renderers are currently free (a snapshot).
func (p *RendererPool) Idle() int { return len(p.avail) }

// Acquire returns a free renderer, blocking until one is released, the
// context is done, or the pool closes. The caller must Release it.
func (p *RendererPool) Acquire(ctx context.Context) (*Renderer, error) {
	select {
	case <-p.avail:
		return p.take(), nil
	default:
	}
	select {
	case <-p.avail:
		return p.take(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-p.done:
		return nil, ErrPoolClosed
	}
}

// Release returns a renderer to the pool. Every Acquire must be paired
// with exactly one Release, even after Close (Close waits for outstanding
// renderers to come back). Finish reading the renderer's last Image
// first: the next holder's frame may overwrite it (see Image).
func (p *RendererPool) Release(r *Renderer) { p.put(r) }

// Discard retires an acquired renderer and replaces it with a freshly
// built one — the service calls this instead of Release after a frame
// panicked, trading the (recovered, believed-consistent) renderer for a
// provably clean one. The replacement is built first: if the build fails,
// the original renderer is returned to the pool (a recovered renderer
// remains usable — every panic path restores its invariants) and the
// build error is reported, so the pool never shrinks either way.
func (p *RendererPool) Discard(r *Renderer) error {
	fresh, err := p.build()
	if err != nil {
		p.put(r)
		return fmt.Errorf("shearwarp: replacing discarded renderer: %w", err)
	}
	p.put(fresh)
	r.Close()
	return nil
}

// Close waits for all renderers to be released and shuts them down.
// Subsequent Acquires fail with ErrPoolClosed; it is safe to call Close
// once only.
func (p *RendererPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.done)
	for i := 0; i < cap(p.avail); i++ {
		<-p.avail
		p.take().Close()
	}
}
