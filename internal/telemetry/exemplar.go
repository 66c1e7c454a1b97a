package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// Exemplar capture: the histogram Observe path can retain, per
// power-of-two latency region, one (value, request ID) pair — an
// OpenMetrics-style exemplar — so a tail bucket of the latency
// distribution links directly to the span trace of a request that
// landed in it. A p999 outlier stops being an anonymous count: the
// exemplar's request ID is the trace ID in the span tracer's ring, one
// /debug/spans?id=N away.
//
// The design constraints mirror the rest of the package:
//
//   - Disabled (the default — no exemplar store attached) the Observe
//     path is unchanged: ObserveNS stays three atomic adds, and
//     ObserveExemplarNS degrades to ObserveNS behind one nil check.
//   - Enabled, capture adds a handful of atomic operations and never
//     blocks: each region slot is guarded by a sequence lock whose
//     writers *skip* instead of spinning when they lose the CAS, so a
//     stampede of observations costs one winner a few stores and every
//     loser two loads.
//   - Nothing allocates, on either path; the store is a fixed array.
//
// Retention policy per region: keep the slowest value seen since the
// slot was last refreshed, and refresh (overwrite unconditionally)
// every refreshEvery-th observation routed to the region so exemplars
// stay recent instead of pinning the all-time maximum forever.

// numExemplarRegions is one slot per power-of-two octave of the
// nanosecond range — coarse enough to stay tiny, fine enough that a
// tail bucket's region holds a tail exemplar, not a median one.
const numExemplarRegions = 64

// refreshEvery forces a slot overwrite on every Nth observation in its
// region, so exemplars age out. Power of two for a cheap mask.
const refreshEvery = 64

// Exemplar is one retained (value, request) pair.
type Exemplar struct {
	ValueNS int64  `json:"value_ns"`
	ReqID   uint64 `json:"req_id"`
}

// exemplarSlot is one region's retained exemplar, guarded by a
// sequence counter: even = stable, odd = writer in the slot. Readers
// retry on a torn read; writers that lose the claim CAS skip entirely.
type exemplarSlot struct {
	seq     atomic.Uint64
	valueNS atomic.Int64
	reqID   atomic.Uint64
	count   atomic.Uint64 // observations routed to this region
}

// store publishes a new exemplar if the slot is free, else skips.
func (s *exemplarSlot) store(v int64, reqID uint64) {
	seq := s.seq.Load()
	if seq&1 != 0 || !s.seq.CompareAndSwap(seq, seq+1) {
		return // another writer owns the slot; drop this candidate
	}
	s.valueNS.Store(v)
	s.reqID.Store(reqID)
	s.seq.Store(seq + 2)
}

// load returns the slot's exemplar, or ok=false when empty or torn
// beyond the retry budget.
func (s *exemplarSlot) load() (Exemplar, bool) {
	for attempt := 0; attempt < 4; attempt++ {
		seq := s.seq.Load()
		if seq == 0 {
			return Exemplar{}, false // never written
		}
		if seq&1 != 0 {
			continue // writer mid-store
		}
		ex := Exemplar{ValueNS: s.valueNS.Load(), ReqID: s.reqID.Load()}
		if s.seq.Load() == seq {
			return ex, true
		}
	}
	return Exemplar{}, false
}

// exemplarStore is the fixed per-histogram slot array.
type exemplarStore struct {
	slots [numExemplarRegions]exemplarSlot
}

// exemplarRegion maps a non-negative value to its octave slot.
func exemplarRegion(v int64) int {
	return bits.Len64(uint64(v)) & (numExemplarRegions - 1)
}

// observe routes one observation through the retention policy.
func (es *exemplarStore) observe(v int64, reqID uint64) {
	slot := &es.slots[exemplarRegion(v)]
	n := slot.count.Add(1)
	// Keep the slowest value in the region, but refresh periodically so
	// a one-off spike from hours ago eventually yields to fresh traffic.
	if n&(refreshEvery-1) == 1 || v >= slot.valueNS.Load() {
		slot.store(v, reqID)
	}
}

// EnableExemplars attaches an exemplar store to the histogram. Call
// before the histogram is shared; Observe/ObserveNS are unaffected, and
// ObserveExemplarNS starts retaining (value, request ID) pairs.
func (h *Histogram) EnableExemplars() {
	if h == nil || h.exemplars != nil {
		return
	}
	h.exemplars = &exemplarStore{}
}

// ObserveExemplarNS records one duration like ObserveNS and, when the
// histogram has an exemplar store, retains (v, reqID) as a candidate
// exemplar for v's latency region. reqID 0 means "no request identity"
// and records the duration without an exemplar.
func (h *Histogram) ObserveExemplarNS(v int64, reqID uint64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	if es := h.exemplars; es != nil && reqID != 0 {
		es.observe(v, reqID)
	}
}

// Exemplars returns the retained exemplars, slowest first. Empty when
// the store is disabled or nothing has been retained yet.
func (h *Histogram) Exemplars() []Exemplar {
	if h == nil || h.exemplars == nil {
		return nil
	}
	var out []Exemplar
	for i := range h.exemplars.slots {
		if ex, ok := h.exemplars.slots[i].load(); ok {
			out = append(out, ex)
		}
	}
	// Regions are octaves, so slot order is value order; reverse for
	// slowest-first without a sort.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}
