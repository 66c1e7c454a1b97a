package par

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestInterleavedCoversAllRows(t *testing.T) {
	for _, tc := range []struct{ lo, hi, chunk, procs int }{
		{0, 100, 4, 3}, {5, 17, 5, 4}, {0, 1, 1, 8}, {0, 64, 64, 2}, {10, 10, 3, 2}, {0, 37, 2, 4},
	} {
		q := NewInterleaved(tc.lo, tc.hi, tc.chunk, tc.procs)
		covered := make([]int, tc.hi)
		for p := 0; ; p = (p + 1) % tc.procs {
			c, _, ok := q.Next(p)
			if !ok {
				break
			}
			for r := c.Lo; r < c.Hi; r++ {
				covered[r]++
			}
		}
		for r := tc.lo; r < tc.hi; r++ {
			if covered[r] != 1 {
				t.Fatalf("%+v: row %d covered %d times", tc, r, covered[r])
			}
		}
		if q.Remaining() != 0 {
			t.Fatalf("%+v: %d chunks left", tc, q.Remaining())
		}
	}
}

// TestTileGridCoversImage: every pixel lies in exactly one tile, tiles run
// row-major, and the scratch passed in is reused rather than appended to.
// The sizes include 1 and 9, which divide neither side.
func TestTileGridCoversImage(t *testing.T) {
	var tiles [][4]int
	for _, tc := range []struct{ w, h, size int }{
		{100, 70, 32}, {37, 23, 9}, {13, 7, 1}, {5, 5, 32}, {64, 64, 8}, {0, 10, 4},
	} {
		tiles = TileGrid(tiles, tc.w, tc.h, tc.size)
		cols := (tc.w + tc.size - 1) / tc.size
		if want := cols * ((tc.h + tc.size - 1) / tc.size); len(tiles) != want {
			t.Fatalf("%+v: %d tiles, want %d", tc, len(tiles), want)
		}
		covered := make([]int, tc.w*tc.h)
		for i, tl := range tiles {
			if tl[0] != i%cols*tc.size || tl[1] != i/cols*tc.size {
				t.Fatalf("%+v: tile %d at (%d,%d), not row-major", tc, i, tl[0], tl[1])
			}
			for y := tl[1]; y < tl[3]; y++ {
				for x := tl[0]; x < tl[2]; x++ {
					covered[y*tc.w+x]++
				}
			}
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("%+v: pixel %d covered %d times", tc, i, c)
			}
		}
	}
}

func TestInterleavedOwnershipIsRoundRobin(t *testing.T) {
	q := NewInterleaved(0, 40, 4, 4)
	// Processor 2's own chunks are rows [8,12), [24,28), ...
	c, stolen, ok := q.Next(2)
	if !ok || stolen || c.Lo != 8 || c.Hi != 12 {
		t.Fatalf("proc 2 first chunk = %+v stolen=%v", c, stolen)
	}
	c, stolen, ok = q.Next(2)
	if !ok || stolen || c.Lo != 24 {
		t.Fatalf("proc 2 second chunk = %+v", c)
	}
}

func TestInterleavedStealingAfterOwnExhausted(t *testing.T) {
	q := NewInterleaved(0, 30, 3, 2)
	// Drain proc 0's own chunks.
	for {
		_, stolen, ok := q.Next(0)
		if !ok {
			t.Fatal("queue drained before stealing observed")
		}
		if stolen {
			break // started stealing proc 1's chunks
		}
	}
	if q.Remaining() >= 5 {
		t.Fatalf("stealing began with %d chunks left, expected fewer", q.Remaining())
	}
}

func TestInterleavedConcurrentSafetyUnderMutex(t *testing.T) {
	// The state machine guarded by a mutex must distribute each row once
	// even with goroutine contention.
	const H, P = 997, 8
	q := NewInterleaved(0, H, 3, P)
	var mu sync.Mutex
	var covered [H]int32
	var wg sync.WaitGroup
	for p := 0; p < P; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for {
				mu.Lock()
				c, _, ok := q.Next(p)
				mu.Unlock()
				if !ok {
					return
				}
				for r := c.Lo; r < c.Hi; r++ {
					atomic.AddInt32(&covered[r], 1)
				}
			}
		}(p)
	}
	wg.Wait()
	for r := range covered {
		if covered[r] != 1 {
			t.Fatalf("row %d covered %d times", r, covered[r])
		}
	}
}

func TestInterleavedTakeStealRoundRobinWraparound(t *testing.T) {
	// 6 chunks of 2 rows for 2 procs: owners alternate 0,1,0,1,0,1.
	q := NewInterleaved(0, 12, 2, 2)

	// A thief's position advances past each stolen chunk and wraps to 0
	// after it takes the last chunk, so later steals resume the scan from
	// the front rather than rescanning a stale tail.
	for want := 0; want < 5; want++ {
		c, ok := q.TakeSteal(0)
		if !ok || c.Lo != 2*want {
			t.Fatalf("steal %d = %+v ok=%v, want Lo %d", want, c, ok, 2*want)
		}
		if q.stealPos[0] != want+1 {
			t.Fatalf("after steal %d: stealPos %d, want %d", want, q.stealPos[0], want+1)
		}
	}
	c, ok := q.TakeSteal(0)
	if !ok || c.Lo != 10 {
		t.Fatalf("last steal = %+v ok=%v", c, ok)
	}
	if q.stealPos[0] != 0 {
		t.Fatalf("stealPos after final chunk = %d, want wraparound to 0", q.stealPos[0])
	}
	if q.Remaining() != 0 {
		t.Fatalf("remaining = %d", q.Remaining())
	}

	// A full-circle scan from a mid-queue position terminates empty-handed
	// instead of looping or double-issuing.
	if _, ok := q.TakeSteal(0); ok {
		t.Fatal("steal succeeded on a drained queue")
	}
	if _, ok := q.TakeSteal(1); ok {
		t.Fatal("steal by a fresh thief succeeded on a drained queue")
	}
}

func TestInterleavedThievesSpreadOut(t *testing.T) {
	// Two thieves stealing alternately resume from their own positions, so
	// they interleave over distinct chunks instead of racing for the same
	// lowest index.
	q := NewInterleaved(0, 12, 2, 2)
	a, _ := q.TakeSteal(0) // chunk 0, pos[0]=1
	b, _ := q.TakeSteal(1) // pos[1]=0 scans: 0 taken, chunk 1
	c, _ := q.TakeSteal(0) // pos[0]=1: 1 taken, chunk 2
	d, _ := q.TakeSteal(1) // pos[1]=2: 2 taken, chunk 3
	got := []int{a.Lo, b.Lo, c.Lo, d.Lo}
	want := []int{0, 2, 4, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("steal sequence %v, want Lo %v", got, want)
		}
	}
}

func TestBandsStealAccountingConcurrent(t *testing.T) {
	// P workers drain the bands concurrently under a mutex (the renderers'
	// locking discipline): every row must be claimed exactly once, steal
	// counts must equal the rows lost by victims, and every band must
	// reach Complete. Exercised under -race in CI.
	const H, P, stealSize = 1024, 8, 3
	boundaries := []int{0, 10, 520, 530, 700, 701, 980, 1000, H} // deliberately skewed
	b := NewBands(boundaries, stealSize)
	var mu sync.Mutex
	var covered [H]int32
	var ownRows, stolenRows [P]int64 // indexed by the band the rows came from
	var wg sync.WaitGroup
	for p := 0; p < P; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for {
				mu.Lock()
				c, ok := b.TakeOwn(p)
				mu.Unlock()
				if !ok {
					break
				}
				atomic.AddInt64(&ownRows[p], int64(c.Hi-c.Lo))
				for r := c.Lo; r < c.Hi; r++ {
					atomic.AddInt32(&covered[r], 1)
				}
				mu.Lock()
				b.MarkDone(p, c.Hi-c.Lo)
				mu.Unlock()
			}
			for {
				mu.Lock()
				c, band, ok := b.TakeSteal()
				mu.Unlock()
				if !ok {
					break
				}
				if c.Hi-c.Lo < 1 || c.Hi-c.Lo > stealSize {
					t.Errorf("stolen chunk %+v exceeds steal size %d", c, stealSize)
					return
				}
				atomic.AddInt64(&stolenRows[band], int64(c.Hi-c.Lo))
				for r := c.Lo; r < c.Hi; r++ {
					atomic.AddInt32(&covered[r], 1)
				}
				mu.Lock()
				b.MarkDone(band, c.Hi-c.Lo)
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()

	for r := 0; r < H; r++ {
		if covered[r] != 1 {
			t.Fatalf("row %d covered %d times", r, covered[r])
		}
	}
	if b.UnclaimedTotal() != 0 {
		t.Fatalf("unclaimed rows left: %d", b.UnclaimedTotal())
	}
	var total int64
	for p := 0; p < P; p++ {
		if !b.Complete(p) {
			t.Fatalf("band %d not complete", p)
		}
		bandRows := int64(boundaries[p+1] - boundaries[p])
		if ownRows[p]+stolenRows[p] != bandRows {
			t.Fatalf("band %d: own %d + stolen %d != band size %d",
				p, ownRows[p], stolenRows[p], bandRows)
		}
		total += ownRows[p] + stolenRows[p]
	}
	if total != H {
		t.Fatalf("accounted rows %d, want %d", total, H)
	}
}

func TestBandsOwnConsumptionAndCompletion(t *testing.T) {
	b := NewBands([]int{0, 10, 25, 30}, 4)
	var got []Chunk
	for {
		c, ok := b.TakeOwn(1)
		if !ok {
			break
		}
		got = append(got, c)
	}
	want := []Chunk{{10, 14}, {14, 18}, {18, 22}, {22, 25}}
	if len(got) != len(want) {
		t.Fatalf("chunks = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chunk %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if b.Complete(1) {
		t.Fatal("band complete before MarkDone")
	}
	for _, c := range got {
		b.MarkDone(1, c.Hi-c.Lo)
	}
	if !b.Complete(1) {
		t.Fatal("band not complete after all rows done")
	}
}

func TestBandsStealFromLargest(t *testing.T) {
	b := NewBands([]int{0, 4, 30, 34}, 5)
	c, victim, ok := b.TakeSteal()
	if !ok || victim != 1 {
		t.Fatalf("steal victim = %d, want 1 (largest band)", victim)
	}
	if c.Lo != 25 || c.Hi != 30 {
		t.Fatalf("stolen chunk %+v, want tail [25,30)", c)
	}
}

func TestBandsFullCoverageWithStealing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		h := 1 + rng.Intn(200)
		p := 1 + rng.Intn(8)
		// Random monotone boundaries.
		bd := make([]int, p+1)
		bd[p] = h
		for i := 1; i < p; i++ {
			bd[i] = rng.Intn(h + 1)
		}
		for i := 1; i <= p; i++ {
			if bd[i] < bd[i-1] {
				bd[i] = bd[i-1]
			}
		}
		b := NewBands(bd, 1+rng.Intn(7))
		covered := make([]int, h)
		claim := func(c Chunk, band int) {
			for r := c.Lo; r < c.Hi; r++ {
				covered[r]++
			}
			b.MarkDone(band, c.Hi-c.Lo)
		}
		// Interleave own-take and steal randomly.
		for {
			if rng.Intn(2) == 0 {
				pr := rng.Intn(p)
				if c, ok := b.TakeOwn(pr); ok {
					claim(c, pr)
					continue
				}
			}
			c, band, ok := b.TakeSteal()
			if !ok {
				if b.UnclaimedTotal() == 0 {
					break
				}
				continue
			}
			claim(c, band)
		}
		for r := 0; r < h; r++ {
			if covered[r] != 1 {
				t.Fatalf("trial %d: row %d covered %d times", trial, r, covered[r])
			}
		}
		for i := 0; i < p; i++ {
			if !b.Complete(i) {
				t.Fatalf("trial %d: band %d incomplete", trial, i)
			}
		}
	}
}

func TestScanMatchesPrefixSum(t *testing.T) {
	f := func(vals []int16, procs uint8) bool {
		src := make([]int64, len(vals))
		for i, v := range vals {
			src[i] = int64(v)
		}
		p := int(procs)%7 + 1
		a := make([]int64, len(src))
		b := make([]int64, len(src))
		ta := Scan(a, src)
		tb := PrefixSum(b, src, p)
		if ta != tb {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixSumLarge(t *testing.T) {
	src := make([]int64, 100000)
	for i := range src {
		src[i] = int64(i % 13)
	}
	dst := make([]int64, len(src))
	total := PrefixSum(dst, src, 8)
	var want int64
	for _, v := range src {
		want += v
	}
	if total != want {
		t.Fatalf("total %d, want %d", total, want)
	}
	if dst[len(dst)-1] != want {
		t.Fatal("last prefix element != total")
	}
}

func TestPrefixSumInPlace(t *testing.T) {
	src := []int64{1, 2, 3, 4, 5}
	Scan(src, src)
	want := []int64{1, 3, 6, 10, 15}
	for i := range want {
		if src[i] != want[i] {
			t.Fatalf("in-place scan[%d] = %d, want %d", i, src[i], want[i])
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const P, rounds = 6, 20
	b := NewBarrier(P)
	var phase int32
	var wg sync.WaitGroup
	errs := make(chan string, P*rounds)
	for p := 0; p < P; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got := atomic.LoadInt32(&phase)
				if got != int32(r) {
					errs <- "phase skew detected"
				}
				b.Wait()
				// One participant advances the phase; use a CAS race where
				// only the winner increments.
				atomic.CompareAndSwapInt32(&phase, int32(r), int32(r+1))
				b.Wait()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if phase != rounds {
		t.Fatalf("phase = %d, want %d", phase, rounds)
	}
}

// TestBandsMarkDoneIdempotentUnderCancellation is the regression test for
// the "band over-completed" panic: a worker that claimed a chunk before a
// frame aborted may re-report rows of a band that has already completed.
// The re-report must be a no-op — no panic, and no second completion
// signal (a double completion would double-release the band's warp wait).
func TestBandsMarkDoneIdempotentUnderCancellation(t *testing.T) {
	b := NewBands([]int{0, 2}, 1)
	if !b.MarkDone(0, 2) {
		t.Fatal("band did not report completion")
	}
	if b.MarkDone(0, 1) {
		t.Fatal("re-report after completion signalled a second completion")
	}
	if !b.Complete(0) {
		t.Fatal("band no longer complete after re-report")
	}
	// Over-reporting while incomplete (a cancelled chunk counted twice)
	// clamps at complete rather than going negative.
	b2 := NewBands([]int{0, 3}, 2)
	if b2.MarkDone(0, 2) {
		t.Fatal("band complete with one row remaining")
	}
	if !b2.MarkDone(0, 2) {
		t.Fatal("clamped over-report did not complete the band")
	}
	if b2.MarkDone(0, 1) {
		t.Fatal("post-completion report signalled completion again")
	}
}
