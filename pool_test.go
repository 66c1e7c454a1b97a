package shearwarp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"shearwarp/internal/vol"
	"shearwarp/internal/volcache"
)

// preparedMRI builds a PreparedVolume over the small MRI phantom.
func preparedMRI(t *testing.T, n int, cache *volcache.Cache) *PreparedVolume {
	t.Helper()
	v := vol.MRIBrain(n)
	pv, err := PrepareVolume(v.Data, v.Nx, v.Ny, v.Nz, TransferMRI, 2, cache)
	if err != nil {
		t.Fatal(err)
	}
	return pv
}

// TestPreparedVolumeByteIdentical renders through shared cached
// preprocessing and directly, for every algorithm, and requires identical
// bytes — sharing classification and encodings must be invisible.
func TestPreparedVolumeByteIdentical(t *testing.T) {
	const n, procs = 24, 2
	v := vol.MRIBrain(n)
	pv := preparedMRI(t, n, nil)
	views := [][2]float64{{30, 15}, {80, -10}, {10, 60}}
	for _, alg := range []Algorithm{Serial, OldParallel, NewParallel} {
		direct, err := NewRenderer(v.Data, v.Nx, v.Ny, v.Nz, Config{Algorithm: alg, Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		shared, err := pv.NewRenderer(Config{Algorithm: alg, Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		for _, vw := range views {
			want, _ := direct.Render(vw[0], vw[1])
			got, _ := shared.Render(vw[0], vw[1])
			var wb, gb bytes.Buffer
			if err := want.WritePPM(&wb); err != nil {
				t.Fatal(err)
			}
			if err := got.WritePPM(&gb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
				t.Errorf("alg %v view %v: shared-preprocessing render differs from direct", alg, vw)
			}
		}
		direct.Close()
		shared.Close()
	}
}

// TestPreparedVolumeSharesBuilds verifies the amortization contract: a
// pool of renderers over one PreparedVolume triggers exactly one
// classification and one encoding build per axis used, with everything
// else served as hits — even when the renderers build concurrently.
func TestPreparedVolumeSharesBuilds(t *testing.T) {
	cache := volcache.New(0)
	pv := preparedMRI(t, 24, cache)
	const renderers = 8
	var wg sync.WaitGroup
	rs := make([]*Renderer, renderers)
	for i := range rs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := pv.NewRenderer(Config{Algorithm: NewParallel, Procs: 2})
			if err != nil {
				t.Error(err)
				return
			}
			rs[i] = r
		}(i)
	}
	wg.Wait()
	if st := cache.Snapshot(); st.Builds != 1 {
		t.Errorf("classification builds = %d, want 1 (single-flight across %d renderers)", st.Builds, renderers)
	}
	for i, r := range rs {
		if im, _ := r.Render(30, 15); im.NonBlackPixels() == 0 {
			t.Errorf("renderer %d produced a black frame", i)
		}
	}
	// One axis rendered: classification + one encoding.
	if st := cache.Snapshot(); st.Builds != 2 {
		t.Errorf("builds after rendering = %d, want 2", st.Builds)
	}
	for _, r := range rs {
		r.Close()
	}
}

// TestRendererPoolLifecycle exercises Acquire/Release pairing, context
// cancellation while the pool is empty, and Close waiting for an
// outstanding renderer.
func TestRendererPoolLifecycle(t *testing.T) {
	pv := preparedMRI(t, 16, nil)
	pool, err := NewRendererPool(2, func() (*Renderer, error) {
		return pv.NewRenderer(Config{Algorithm: NewParallel, Procs: 2})
	})
	if err != nil {
		t.Fatal(err)
	}
	if pool.Size() != 2 || pool.Idle() != 2 {
		t.Fatalf("fresh pool: size %d idle %d, want 2/2", pool.Size(), pool.Idle())
	}

	ctx := context.Background()
	r1, err := pool.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := pool.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Idle() != 0 {
		t.Fatalf("idle = %d with both renderers out", pool.Idle())
	}

	// Acquire on an empty pool must honor context cancellation.
	cctx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if _, err := pool.Acquire(cctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Acquire on empty pool: %v, want deadline exceeded", err)
	}

	pool.Release(r2)

	// Close must wait for the outstanding renderer.
	closed := make(chan struct{})
	go func() {
		pool.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with a renderer still acquired")
	case <-time.After(50 * time.Millisecond):
	}
	pool.Release(r1)
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not finish after the last Release")
	}

	if _, err := pool.Acquire(ctx); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Acquire after Close: %v, want ErrPoolClosed", err)
	}
	pool.Close() // idempotent
}

// TestRendererPoolHandsOutMostRecentlyReleased pins the pool's order: the
// renderer released last is acquired first, whether the acquirer arrives
// later or was already waiting, and a Discard's replacement takes the
// discarded renderer's place at the top. Load that holds N renderers at a
// time therefore only ever touches N of them.
func TestRendererPoolHandsOutMostRecentlyReleased(t *testing.T) {
	pv := preparedMRI(t, 16, nil)
	pool, err := NewRendererPool(8, func() (*Renderer, error) {
		return pv.NewRenderer(Config{Algorithm: NewParallel, Procs: 2})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ctx := context.Background()
	acquire := func() *Renderer {
		t.Helper()
		r, err := pool.Acquire(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	a, b, c := acquire(), acquire(), acquire()
	pool.Release(a)
	pool.Release(b)
	if got := acquire(); got != b {
		t.Fatal("Acquire after Release(a), Release(b) did not return b")
	}
	if got := acquire(); got != a {
		t.Fatal("the second Acquire did not return a")
	}
	pool.Release(a)
	pool.Release(b)
	pool.Release(c)

	// Discard: the pool is whole again, the replacement comes out first and
	// the discarded renderer never again.
	x := acquire()
	if x != c {
		t.Fatal("Acquire did not return the renderer released last")
	}
	if err := pool.Discard(x); err != nil {
		t.Fatal(err)
	}
	if pool.Idle() != pool.Size() {
		t.Fatalf("idle = %d of %d after Discard", pool.Idle(), pool.Size())
	}
	fresh := acquire()
	if fresh == x || fresh == a || fresh == b {
		t.Fatal("Acquire after Discard did not return the replacement")
	}
	pool.Release(fresh)

	// A blocked Acquire gets the renderer whose Release unblocks it.
	held := make([]*Renderer, pool.Size())
	for i := range held {
		held[i] = acquire()
	}
	got := make(chan *Renderer)
	go func() {
		r, err := pool.Acquire(ctx)
		if err != nil {
			t.Error(err)
		}
		got <- r
	}()
	select {
	case <-got:
		t.Fatal("Acquire on an empty pool returned before any Release")
	case <-time.After(20 * time.Millisecond):
	}
	pool.Release(held[3])
	if r := <-got; r != held[3] {
		t.Fatal("the blocked Acquire did not get the released renderer")
	}
	for _, r := range held {
		pool.Release(r)
	}

	// Two clients back to back on a pool of eight use two renderers.
	var mu sync.Mutex
	used := map[*Renderer]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r, err := pool.Acquire(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				used[r] = true
				mu.Unlock()
				pool.Release(r)
			}
		}()
	}
	wg.Wait()
	if len(used) > 2 {
		t.Fatalf("2 concurrent clients touched %d of %d renderers, want at most 2", len(used), pool.Size())
	}
}

// TestRendererPoolBuildError verifies the constructor error path: the
// already-built renderers are torn down and the error is surfaced.
func TestRendererPoolBuildError(t *testing.T) {
	pv := preparedMRI(t, 16, nil)
	built := 0
	_, err := NewRendererPool(3, func() (*Renderer, error) {
		if built == 2 {
			return nil, fmt.Errorf("boom")
		}
		built++
		return pv.NewRenderer(Config{Algorithm: NewParallel, Procs: 2})
	})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("boom")) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

// TestPrepareVolumeValidation mirrors NewRenderer's input checks.
func TestPrepareVolumeValidation(t *testing.T) {
	if _, err := PrepareVolume(make([]uint8, 7), 2, 2, 2, TransferMRI, 1, nil); err == nil {
		t.Error("short data accepted")
	}
	if _, err := PrepareVolume(make([]uint8, 2), 1, 2, 1, TransferMRI, 1, nil); err == nil {
		t.Error("degenerate dims accepted")
	}
}
