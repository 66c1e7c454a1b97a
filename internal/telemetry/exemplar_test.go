package telemetry

import (
	"sync"
	"testing"
)

func TestExemplarDisabledByDefault(t *testing.T) {
	h := NewHistogram()
	h.ObserveExemplarNS(1000, 42)
	if got := h.Exemplars(); got != nil {
		t.Fatalf("disabled histogram returned exemplars: %v", got)
	}
	if h.Count() != 1 {
		t.Fatalf("ObserveExemplarNS did not record the observation: count %d", h.Count())
	}
}

func TestExemplarCaptureAndRegions(t *testing.T) {
	h := NewHistogram()
	h.EnableExemplars()

	// Two observations in well-separated octaves: both must be retained,
	// each tagged with its own request ID, slowest first.
	h.ObserveExemplarNS(1_000, 7)      // ~2^10 region
	h.ObserveExemplarNS(50_000_000, 9) // ~2^25 region
	h.ObserveExemplarNS(40_000_000, 8) // same region, smaller: not retained
	ex := h.Exemplars()
	if len(ex) != 2 {
		t.Fatalf("retained %d exemplars, want 2: %v", len(ex), ex)
	}
	if ex[0].ValueNS != 50_000_000 || ex[0].ReqID != 9 {
		t.Fatalf("slowest exemplar = %+v, want 50ms from req 9", ex[0])
	}
	if ex[1].ValueNS != 1_000 || ex[1].ReqID != 7 {
		t.Fatalf("fast exemplar = %+v, want 1µs from req 7", ex[1])
	}

	// A slower observation in an occupied region replaces its exemplar.
	h.ObserveExemplarNS(60_000_000, 11)
	ex = h.Exemplars()
	if ex[0].ValueNS != 60_000_000 || ex[0].ReqID != 11 {
		t.Fatalf("slower observation did not replace exemplar: %+v", ex[0])
	}

	// reqID 0 records the duration but never an exemplar.
	before := len(h.Exemplars())
	h.ObserveExemplarNS(1<<40, 0)
	if len(h.Exemplars()) != before {
		t.Fatal("reqID 0 created an exemplar")
	}
}

// TestExemplarRefresh pins the aging policy: every refreshEvery-th
// observation in a region overwrites the slot even when it is faster
// than the retained value, so stale spikes eventually yield.
func TestExemplarRefresh(t *testing.T) {
	h := NewHistogram()
	h.EnableExemplars()
	h.ObserveExemplarNS(1<<20+1000, 1) // spike
	for i := 0; i < refreshEvery; i++ {
		h.ObserveExemplarNS(1<<20+1, 99) // same octave, faster
	}
	ex := h.Exemplars()
	if len(ex) != 1 || ex[0].ReqID != 99 {
		t.Fatalf("refresh did not replace stale exemplar: %v", ex)
	}
}

func TestExemplarZeroAllocs(t *testing.T) {
	h := NewHistogram()
	h.EnableExemplars()
	var id uint64
	allocs := testing.AllocsPerRun(100, func() {
		id++
		h.ObserveExemplarNS(int64(id)*1023, id)
	})
	if allocs != 0 {
		t.Fatalf("ObserveExemplarNS allocates %.1f allocs/op, want 0", allocs)
	}
	plain := NewHistogram()
	allocs = testing.AllocsPerRun(100, func() {
		plain.ObserveNS(4096)
	})
	if allocs != 0 {
		t.Fatalf("ObserveNS allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestExemplarConcurrent hammers one histogram from many goroutines
// under -race: the seqlock must never pair a value with another
// request's ID. Each goroutine observes a value that encodes its
// request ID, so any retained exemplar can be checked for consistency.
func TestExemplarConcurrent(t *testing.T) {
	h := NewHistogram()
	h.EnableExemplars()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				id := uint64(w*10000 + i + 1)
				// value mod workers*10000+... encode: value = id * 16
				h.ObserveExemplarNS(int64(id)*16, id)
			}
		}(w)
	}
	wg.Wait()
	for _, ex := range h.Exemplars() {
		if ex.ValueNS != int64(ex.ReqID)*16 {
			t.Fatalf("torn exemplar: value %d not consistent with req %d", ex.ValueNS, ex.ReqID)
		}
	}
}
