package newalg

import (
	"math"

	"shearwarp/internal/par"
	"shearwarp/internal/render"
	"shearwarp/internal/warp"
	"shearwarp/internal/xform"
)

// Planner is the new algorithm's per-frame schedule. It carries the
// profile from frame to frame and, for each frame, decides whether the
// frame profiles (section 4.2), which scanlines can receive samples, where
// the equal-area band boundaries fall (4.3), how many rows a steal takes
// (4.4) and which warp tasks each band owns (4.5, 5.5.2). The goroutine
// renderer and the simulator (simrun.RunNew) both schedule through it, so
// the simulated figures describe the policy the native renderer runs.
//
// The plan lives in reusable scratch: frames after the first allocate
// nothing. It is valid until the next Plan.
type Planner struct {
	procs      int
	always     bool    // profile every frame
	stealChunk int     // rows per steal; 0 = stealChunkSize
	granBytes  int     // coherence granularity the steal heuristic sees
	reprofile  float64 // rotation between profiles, radians

	// The plan of the current frame.
	Profiling  bool        // this frame collects a profile (Record, then Commit)
	Balanced   bool        // Boundaries split a profile; false means a uniform split
	Region     Region      // scanlines that can receive samples
	Boundaries []int       // band p is rows Boundaries[p]..Boundaries[p+1]
	Bands      *par.Bands  // the compositing queue over Boundaries
	Tasks      []warp.Task // the warp tasks over Boundaries

	profile  []int64 // the last committed profile
	at       viewKey // the view profile was taken at; valid only if haveProf
	cur      viewKey // the view of the current plan
	next     []int64 // the profile this frame collects
	pad      []int64 // profile zero-extended to a grown image
	cum      []int64 // prefix-sum scratch
	tb       warp.TaskBuilder
	haveProf bool
}

// viewKey is what a profile's usefulness depends on: the principal axis,
// the rotation, the intermediate image height and the v-axis shear and
// translation that place voxels on its scanlines.
type viewKey struct {
	axis       xform.Axis
	yaw, pitch float64
	h          int
	sj, tv     float64
}

// NewPlanner returns the planner for cfg. The goroutine renderer passes
// zeros for the other three inputs, which the simulator sets per platform
// and ablation: stealChunk fixes the rows per steal (0 sizes steals from
// the region, the worker count and granBytes), reprofileDeg is the rotation
// between profiles (0 = 15°), and granBytes is the coherence granularity
// (cache line or page) the steal heuristic coarsens for above 64 bytes.
func NewPlanner(cfg Config, stealChunk int, reprofileDeg float64, granBytes int) Planner {
	cfg.normalize()
	if reprofileDeg == 0 {
		reprofileDeg = 15
	}
	return Planner{
		procs:      cfg.Procs,
		always:     cfg.AlwaysProfile,
		stealChunk: stealChunk,
		granBytes:  granBytes,
		reprofile:  reprofileDeg * math.Pi / 180,
	}
}

// Plan schedules frame fr, rendered at (yaw, pitch).
//
// The committed profile is usable while the principal axis is the same and
// the image height has moved by at most maxImageDrift rows. Then the bands
// split the profile's non-empty region, widened by the drift bound, into
// equal areas; otherwise they split the whole image evenly. The frame
// profiles when no profile is usable or the view has rotated by the
// re-profile angle in yaw or pitch since the profile was taken.
func (pl *Planner) Plan(fr *render.Frame, yaw, pitch float64) {
	h := fr.M.H
	pl.cur = viewKey{axis: fr.F.Axis, yaw: yaw, pitch: pitch, h: h, sj: fr.F.Sj, tv: fr.F.Tv}
	at := &pl.at
	pl.Balanced = pl.haveProf && at.axis == fr.F.Axis && abs(at.h-h) <= maxImageDrift
	pl.Profiling = pl.always || !pl.Balanced ||
		math.Abs(yaw-at.yaw) >= pl.reprofile || math.Abs(pitch-at.pitch) >= pl.reprofile

	pl.Boundaries = resize(pl.Boundaries, pl.procs+1)
	if pl.Balanced {
		pl.Region = pl.widen(FindRegion(pl.profile), fr.F.Nk, h)
		prof := pl.profile
		if len(prof) < pl.Region.Hi {
			// The image has grown: rows the profiled frame did not have
			// carry no cost and partition as zero.
			pl.pad = resize(pl.pad, pl.Region.Hi)
			clear(pl.pad[copy(pl.pad, prof):])
			prof = pl.pad
		}
		n := max(pl.Region.Hi-pl.Region.Lo, 0)
		pl.cum = resize(pl.cum, n)
		total := par.Scan(pl.cum, prof[pl.Region.Lo:pl.Region.Lo+n])
		split(pl.Boundaries, pl.cum, total, pl.Region)
	} else {
		pl.Region = Region{0, h}
		for p := range pl.Boundaries {
			pl.Boundaries[p] = p * h / pl.procs
		}
	}

	steal := pl.stealChunk
	if steal < 1 {
		steal = stealChunkSize(pl.Region.Hi-pl.Region.Lo, pl.procs, pl.granBytes)
	}
	if pl.Bands == nil {
		pl.Bands = par.NewBands(pl.Boundaries, steal)
	} else {
		pl.Bands.Reset(pl.Boundaries, steal)
	}
	pl.Tasks = pl.tb.Partition(pl.Boundaries)

	if pl.Profiling {
		// Workers write disjoint rows; rows outside the composited region
		// must read as empty, hence the clear.
		pl.next = resize(pl.next, h)
		clear(pl.next)
	}
}

// widen expands the committed profile's non-empty region r by a sound bound
// on how far any voxel's v coordinate can have moved since the profile was
// taken, keeping the skip exact: a scanline outside the widened region
// cannot receive samples. v = j + Sj·k + Tv, so over k in [0, nk) the shift
// is at most max(|ΔTv|, |ΔSj·(nk−1) + ΔTv|). The extra row on each side is
// conservative: a sampled row already spans its bilinear footprint. The
// result is clipped to the h-row image.
func (pl *Planner) widen(r Region, nk, h int) Region {
	if r.Hi <= r.Lo {
		return r
	}
	dSj, dTv := pl.cur.sj-pl.at.sj, pl.cur.tv-pl.at.tv
	shift := math.Max(math.Abs(dTv), math.Abs(dSj*float64(nk-1)+dTv))
	b := int(math.Ceil(shift)) + 1
	return Region{max(r.Lo-b, 0), min(r.Hi+b, h)}
}

// Record stores row's compositing cost in the profile this frame collects
// and returns the cycles that instrumenting the row costs. A row that
// composited no samples (sampled false) records zero, so the next region
// excludes it. Call it only on a profiling frame; workers may record
// disjoint rows concurrently.
func (pl *Planner) Record(row int, cycles int64, sampled bool) int64 {
	if sampled {
		pl.next[row] = cycles
	} else {
		pl.next[row] = 0
	}
	return profileOverheadCycles(cycles)
}

// Commit makes the profile this frame collected the one later frames plan
// from. Call it once the frame has completed: a failed or cancelled frame
// must not commit, since its profile may be partial. Commit is a no-op on
// a frame that did not profile, and after the first call on one that did.
func (pl *Planner) Commit() {
	if !pl.Profiling {
		return
	}
	pl.profile, pl.next = pl.next, pl.profile
	pl.at, pl.haveProf = pl.cur, true
	pl.Profiling = false
}

// Profile returns the last committed per-scanline cost profile (nil before
// the first). The slice is reused by later profiling frames; callers must
// not modify or retain it.
func (pl *Planner) Profile() []int64 { return pl.profile }

// resize returns s with length n, reusing its storage when it is large
// enough. The contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
