// Package par provides the parallel runtime building blocks shared by the
// old and new parallel shear-warp algorithms: task-queue state machines
// (interleaved chunks with stealing; contiguous bands with chunked
// stealing), a reusable barrier, and parallel prefix sums.
//
// The queue types are deliberately pure state machines with no internal
// locking: the native renderers guard them with a real sync.Mutex, while
// the simulation drivers guard them with a simulated lock so queue and
// steal contention shows up in simulated time. Both paths share the exact
// scheduling logic.
package par

// Chunk is a half-open range of scanlines [Lo, Hi).
type Chunk struct{ Lo, Hi int }

// Interleaved is the old algorithm's compositing assignment: scanlines
// grouped into fixed-size chunks, assigned round-robin to processors, with
// stealing when a processor's own chunks run out.
type Interleaved struct {
	chunks []Chunk
	owner  []int
	taken  []bool
	// ownPos[p] is the next index to scan in p's own chunk sequence;
	// stealPos[p] the next global index to scan when stealing.
	ownPos   []int
	stealPos []int
	nprocs   int
	left     int
}

// NewInterleaved builds the assignment of rows [lo, hi) into chunks of
// chunkSize scanlines for nprocs processors.
func NewInterleaved(lo, hi, chunkSize, nprocs int) *Interleaved {
	if chunkSize < 1 {
		chunkSize = 1
	}
	q := &Interleaved{
		nprocs:   nprocs,
		ownPos:   make([]int, nprocs),
		stealPos: make([]int, nprocs),
	}
	for s := lo; s < hi; s += chunkSize {
		e := s + chunkSize
		if e > hi {
			e = hi
		}
		q.chunks = append(q.chunks, Chunk{s, e})
		q.owner = append(q.owner, (len(q.chunks)-1)%nprocs)
	}
	q.taken = make([]bool, len(q.chunks))
	q.left = len(q.chunks)
	return q
}

// TakeOwn hands processor p its next own chunk, if any.
func (q *Interleaved) TakeOwn(p int) (Chunk, bool) {
	for i := q.ownPos[p]; i < len(q.chunks); i++ {
		if q.owner[i] == p {
			q.ownPos[p] = i + 1
			if !q.taken[i] {
				q.taken[i] = true
				q.left--
				return q.chunks[i], true
			}
		}
	}
	q.ownPos[p] = len(q.chunks)
	return Chunk{}, false
}

// TakeSteal hands processor p any remaining chunk (task stealing). It scans
// round-robin from p's last steal position so thieves spread out.
func (q *Interleaved) TakeSteal(p int) (Chunk, bool) {
	if q.left == 0 {
		return Chunk{}, false
	}
	n := len(q.chunks)
	for step := 0; step < n; step++ {
		i := (q.stealPos[p] + step) % n
		if !q.taken[i] {
			q.taken[i] = true
			q.left--
			q.stealPos[p] = (i + 1) % n
			return q.chunks[i], true
		}
	}
	return Chunk{}, false
}

// Next returns p's next unit of work: an own chunk if one remains,
// otherwise a stolen chunk. The second return distinguishes the two (true
// when the chunk was stolen).
func (q *Interleaved) Next(p int) (Chunk, bool, bool) {
	if c, ok := q.TakeOwn(p); ok {
		return c, false, true
	}
	if c, ok := q.TakeSteal(p); ok {
		return c, true, true
	}
	return Chunk{}, false, false
}

// Remaining reports how many chunks are still unclaimed.
func (q *Interleaved) Remaining() int { return q.left }

// TileGrid stores the size×size tiles of a w×h image in tiles[:0],
// row-major as [x0, y0, x1, y1] with the edge tiles clipped, and returns
// the slice. The old algorithm's warp and the ray caster hand these tiles
// out round-robin, natively and on the simulator.
func TileGrid(tiles [][4]int, w, h, size int) [][4]int {
	tiles = tiles[:0]
	for y := 0; y < h; y += size {
		y1 := min(y+size, h)
		for x := 0; x < w; x += size {
			tiles = append(tiles, [4]int{x, y, min(x+size, w), y1})
		}
	}
	return tiles
}

// Bands is the new algorithm's compositing assignment: one contiguous
// partition of scanlines per processor, consumed from the front in steal-
// chunk units; idle processors steal chunks from the tail of the band with
// the most remaining work. Completion of each band is tracked so the
// band's owner can enter the warp phase without a global barrier.
type Bands struct {
	next, hi  []int // unclaimed region of each band
	remaining []int // rows of each band not yet composited
	stealSize int
}

// NewBands builds band state from partition boundaries (boundaries[p] to
// boundaries[p+1] is processor p's band). stealSize is the number of
// scanlines taken per steal.
func NewBands(boundaries []int, stealSize int) *Bands {
	b := &Bands{}
	b.Reset(boundaries, stealSize)
	return b
}

// Reset reinitializes the band state in place from new boundaries, reusing
// the slices so the per-frame setup of the steady-state render loop does
// not allocate.
func (b *Bands) Reset(boundaries []int, stealSize int) {
	if stealSize < 1 {
		stealSize = 1
	}
	p := len(boundaries) - 1
	if cap(b.next) >= p {
		b.next, b.hi, b.remaining = b.next[:p], b.hi[:p], b.remaining[:p]
	} else {
		b.next = make([]int, p)
		b.hi = make([]int, p)
		b.remaining = make([]int, p)
	}
	b.stealSize = stealSize
	for i := 0; i < p; i++ {
		b.next[i] = boundaries[i]
		b.hi[i] = boundaries[i+1]
		b.remaining[i] = boundaries[i+1] - boundaries[i]
	}
}

// TakeOwn hands band owner p its next chunk of rows from the front of its
// band.
func (b *Bands) TakeOwn(p int) (Chunk, bool) {
	if b.next[p] >= b.hi[p] {
		return Chunk{}, false
	}
	lo := b.next[p]
	hi := lo + b.stealSize
	if hi > b.hi[p] {
		hi = b.hi[p]
	}
	b.next[p] = hi
	return Chunk{lo, hi}, true
}

// TakeSteal steals a chunk from the tail of the band with the most
// unclaimed rows, returning the chunk and the band it belongs to.
func (b *Bands) TakeSteal() (Chunk, int, bool) {
	victim, most := -1, 0
	for i := range b.next {
		if r := b.hi[i] - b.next[i]; r > most {
			victim, most = i, r
		}
	}
	if victim < 0 {
		return Chunk{}, 0, false
	}
	hi := b.hi[victim]
	lo := hi - b.stealSize
	if lo < b.next[victim] {
		lo = b.next[victim]
	}
	b.hi[victim] = lo
	return Chunk{lo, hi}, victim, true
}

// MarkDone records that n rows of band p have been composited; it returns
// true when the band just completed. Completion is idempotent: once a band
// has completed, further reports (a cancelled worker re-reporting rows it
// had claimed before the frame aborted) are no-ops rather than panics, and
// never signal a second completion.
func (b *Bands) MarkDone(p, n int) bool {
	if b.remaining[p] == 0 {
		return false
	}
	b.remaining[p] -= n
	if b.remaining[p] <= 0 {
		b.remaining[p] = 0
		return true
	}
	return false
}

// Complete reports whether band p has been fully composited.
func (b *Bands) Complete(p int) bool { return b.remaining[p] == 0 }

// UnclaimedTotal reports the rows not yet claimed across all bands.
func (b *Bands) UnclaimedTotal() int {
	t := 0
	for i := range b.next {
		t += b.hi[i] - b.next[i]
	}
	return t
}
