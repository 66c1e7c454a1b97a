package alloctest

import (
	"runtime"
	"sync"
	"testing"
)

var sink any

func TestPerRunReportsRealAllocations(t *testing.T) {
	if got := PerRun(10, func() { sink = new([64]byte) }); got != 1 {
		t.Fatalf("PerRun = %v for a function that allocates once per call, want 1", got)
	}
}

func TestPerRunMeasuresAgainAfterGC(t *testing.T) {
	pool := sync.Pool{New: func() any { return new([64]byte) }}
	calls := 0
	got := PerRun(10, func() {
		// During the first measurement (warm-up call + 10 runs) the
		// collector empties the pool before every Get.
		if calls++; calls <= 11 {
			runtime.GC()
			runtime.GC() // the second collection drops the pool's victim cache
		}
		pool.Put(pool.Get())
	})
	if got != 0 {
		t.Fatalf("PerRun = %v, want 0: the pool refills were a collection's doing", got)
	}
	if calls <= 11 {
		t.Fatalf("measured once (%d calls) although the collector ran", calls)
	}
}
