// Package newalg implements the paper's new parallel shear-warp algorithm
// (section 4): contiguous, profile-balanced partitions of the intermediate
// image used identically by the compositing and warp phases.
//
// Per frame:
//
//  1. The non-empty region of the intermediate image is determined from
//     the per-scanline cost profile of a previous frame, skipping the
//     empty border scanlines the old algorithm composites blindly.
//  2. A cumulative cost profile is built with a parallel prefix sum and
//     partition boundaries are found by equal-area binary search, giving
//     each processor one contiguous block of scanlines (section 4.3).
//  3. Processors composite their own block front to front, stealing
//     chunk-sized tails from the most loaded block when idle (section 4.4).
//  4. Each processor warps exactly the final-image pixels fed by its own
//     block (section 4.5); the boundary sliver goes to the neighbour with
//     fewer lines, eliminating final-image write sharing, and per-block
//     completion counters replace the global barrier between the phases
//     (section 5.5.2).
//
// Profiles are re-collected only when the viewpoint has rotated far enough
// (default: every 15 degrees), charging the paper's 10-15% profiling
// overhead only on those frames (section 4.2).
//
// Planner makes every one of these per-frame decisions. The goroutine
// Renderer and the simulator (simrun.RunNew) both call it; neither keeps a
// schedule of its own.
package newalg

import "shearwarp/internal/par"

// Region is the half-open scanline interval of the intermediate image that
// actually receives samples.
type Region struct{ Lo, Hi int }

// FindRegion locates the non-empty region of a per-scanline cost profile,
// expanded by one scanline of slack on each side (the next frame's small
// rotation can shift the image by a little). An all-zero profile yields an
// empty region.
func FindRegion(profile []int64) Region {
	lo := 0
	for lo < len(profile) && profile[lo] == 0 {
		lo++
	}
	if lo == len(profile) {
		return Region{}
	}
	hi := len(profile)
	for hi > lo && profile[hi-1] == 0 {
		hi--
	}
	if lo > 0 {
		lo--
	}
	if hi < len(profile) {
		hi++
	}
	return Region{lo, hi}
}

// Partition computes contiguous, predictively balanced partition
// boundaries for nprocs processors from a per-scanline cost profile,
// using a prefix sum over the region and equal-area binary search.
// boundaries[p]..boundaries[p+1] is processor p's block; boundaries has
// length nprocs+1 with boundaries[0] = region.Lo and boundaries[nprocs] =
// region.Hi. prefixProcs controls the parallelism of the prefix sum. The
// Planner makes the same split from reusable scratch with a serial prefix
// sum, which is bit-identical for integer profiles.
func Partition(profile []int64, region Region, nprocs, prefixProcs int) []int {
	boundaries := make([]int, nprocs+1)
	n := max(region.Hi-region.Lo, 0)
	cum := make([]int64, n)
	total := par.PrefixSum(cum, profile[region.Lo:region.Lo+n], prefixProcs)
	split(boundaries, cum, total, region)
	return boundaries
}

// split writes the equal-area boundaries of region for len(boundaries)-1
// processors, given cum, the inclusive prefix sum of the region's profile,
// and its total: block p ends at the first scanline whose cumulative cost
// reaches p/nprocs of the total. The search is hand-rolled so no closure
// forms and the Planner's frame loop stays allocation-free.
func split(boundaries []int, cum []int64, total int64, region Region) {
	nprocs := len(boundaries) - 1
	n := region.Hi - region.Lo
	for p := range boundaries {
		boundaries[p] = region.Lo
	}
	boundaries[nprocs] = region.Hi
	if n <= 0 {
		return
	}
	if total == 0 {
		// Degenerate: fall back to uniform splits.
		for p := 1; p < nprocs; p++ {
			boundaries[p] = region.Lo + p*n/nprocs
		}
		return
	}
	for p := 1; p < nprocs; p++ {
		target := total * int64(p) / int64(nprocs)
		lo, hi := 0, n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if cum[mid] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		boundaries[p] = region.Lo + min(lo, n-1)
	}
	// Enforce monotonicity (very skewed profiles can collapse splits).
	for p := 1; p <= nprocs; p++ {
		if boundaries[p] < boundaries[p-1] {
			boundaries[p] = boundaries[p-1]
		}
	}
}

// Imbalance returns max-block-cost / mean-block-cost for a partition over a
// profile; 1.0 is perfect balance.
func Imbalance(profile []int64, boundaries []int) float64 {
	p := len(boundaries) - 1
	var total, maxBlock int64
	for b := 0; b < p; b++ {
		var s int64
		for r := boundaries[b]; r < boundaries[b+1]; r++ {
			s += profile[r]
		}
		total += s
		if s > maxBlock {
			maxBlock = s
		}
	}
	if total == 0 {
		return 1
	}
	return float64(maxBlock) * float64(p) / float64(total)
}

// stealChunkSize picks the task-stealing granularity, which the paper ties
// to the data set size, the processor count and the cache line size
// (section 4.4): roughly one chunk of scanlines that covers a few cache
// lines of intermediate image per steal, shrinking as processors multiply.
func stealChunkSize(regionRows, nprocs, lineBytes int) int {
	if regionRows <= 0 {
		return 1
	}
	c := regionRows / (nprocs * 16)
	if c < 1 {
		c = 1
	}
	if lineBytes > 64 {
		c *= lineBytes / 64 // coarser coherence wants coarser steals
	}
	if c > 32 {
		c = 32
	}
	return c
}

// profileOverheadCycles models the instrumentation cost of profiling a
// scanline whose un-instrumented cost was cycles: an eighth (12.5%), inside
// the paper's measured 10-15% band.
func profileOverheadCycles(cycles int64) int64 { return cycles / 8 }

// maxImageDrift is how many scanlines the intermediate image height may
// change before a stale profile is considered unusable. Small rotations
// grow or shrink the sheared image by a row or two; the region-expansion
// bound already covers the content shift, so only large jumps (which the
// angle threshold catches anyway) force an early re-profile.
const maxImageDrift = 16
