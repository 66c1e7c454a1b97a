package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shearwarp/internal/perf"
)

// Span categories, mapped onto the paper's Figure 5/6 vocabulary by
// Breakdown: busy spans are computation, sync spans are explicit
// synchronization, and whatever remains of the frame's wall clock is load
// imbalance. Request-category spans live on the request lane (worker -1)
// and are excluded from the per-worker accounting.
const (
	CatBusy    = "busy"
	CatSync    = "sync"
	CatRequest = "request"
)

// Span is one timed section of a request or frame. StartNS is measured
// from the owning tracer's epoch so spans from overlapping requests
// share a timeline.
type Span struct {
	Name    string `json:"name"`
	Cat     string `json:"cat"`
	Worker  int    `json:"worker"` // -1 = request lane, >= 0 = render worker
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// maxFrameSpans bounds one request's span count. A frame records a
// constant number of spans per worker — at most ten, whatever its size —
// plus the request-level phases, so 512 holds dozens of workers. Overflow
// drops spans and counts the drop instead of growing; Breakdown refuses
// a frame with drops.
const maxFrameSpans = 512

// FrameSpans is the per-request span recorder the render workers write
// into: a preallocated fixed-size buffer claimed by atomic index, so
// concurrent workers record without locks and a whole frame's recording
// allocates nothing. All methods are no-ops on a nil receiver — the
// disabled-telemetry contract the renderers' nil checks rely on.
//
// Ownership: one goroutine resets the recorder, attaches it to a
// renderer, and reads Spans after the frame's completion barrier;
// workers only Record between those points.
type FrameSpans struct {
	epoch   time.Time
	n       atomic.Int64
	dropped atomic.Int64
	spans   [maxFrameSpans]Span
}

// NewFrameSpans returns a recorder whose span timestamps are measured
// from epoch.
func NewFrameSpans(epoch time.Time) *FrameSpans {
	return &FrameSpans{epoch: epoch}
}

// Reset clears the recorder for a new request, rebasing on epoch.
func (fs *FrameSpans) Reset(epoch time.Time) {
	if fs == nil {
		return
	}
	fs.epoch = epoch
	fs.n.Store(0)
	fs.dropped.Store(0)
}

// Record appends one span. Safe for concurrent workers; allocation-free.
func (fs *FrameSpans) Record(worker int, name, cat string, start time.Time, d time.Duration) {
	if fs == nil {
		return
	}
	i := fs.n.Add(1) - 1
	if i >= maxFrameSpans {
		fs.dropped.Add(1)
		return
	}
	fs.spans[i] = Span{
		Name:    name,
		Cat:     cat,
		Worker:  worker,
		StartNS: start.Sub(fs.epoch).Nanoseconds(),
		DurNS:   int64(d),
	}
}

// Spans returns the recorded spans. Call only after every recording
// worker has finished (the frame's completion barrier); the slice
// aliases the recorder and is invalidated by Reset.
func (fs *FrameSpans) Spans() []Span {
	if fs == nil {
		return nil
	}
	n := fs.n.Load()
	if n > maxFrameSpans {
		n = maxFrameSpans
	}
	return fs.spans[:n]
}

// Dropped returns how many spans overflowed the buffer.
func (fs *FrameSpans) Dropped() int64 {
	if fs == nil {
		return 0
	}
	return fs.dropped.Load()
}

// epoch is the instant the daemons' span and trace timestamps count from:
// one timeline per process, so a gateway and backends sharing a process
// (tests, the benchmark) need no clock offset between them.
var epoch = time.Now()

// SinceEpoch returns at in nanoseconds on the daemons' trace timeline.
func SinceEpoch(at time.Time) int64 { return at.Sub(epoch).Nanoseconds() }

// recorders recycles the daemons' per-request recorders, so a request
// allocates at most its retained Trace, not the recording buffer.
var recorders = sync.Pool{New: func() any { return NewFrameSpans(epoch) }}

// GetSpans returns an empty pooled recorder on the daemons' timeline. It
// goes back to the pool through (*Tracer).Capture.
func GetSpans() *FrameSpans {
	fs := recorders.Get().(*FrameSpans)
	fs.Reset(epoch)
	return fs
}

// Trace is one request's captured spans plus identification. DurNS
// covers the whole request (admission through encode); Status is the
// HTTP status the request answered with (0 while in flight).
//
// In a fleet, several processes retain traces under the same ID: the
// gateway's trace carries Attempts (one AttemptRef per backend try) and
// each backend's trace carries the Attempt ordinal it served, so the
// stitcher can pair them back up.
type Trace struct {
	ID       uint64       `json:"id"`
	Label    string       `json:"label"`
	Attempt  int          `json:"attempt,omitempty"`
	StartNS  int64        `json:"start_ns"`
	DurNS    int64        `json:"dur_ns"`
	Status   int          `json:"status"`
	Dropped  int64        `json:"dropped_spans,omitempty"`
	Spans    []Span       `json:"spans"`
	Attempts []AttemptRef `json:"attempts,omitempty"`
}

// AttemptRef records, on a gateway trace, one attempt the gateway made
// against a backend: which backend, why it launched (hedge/retry), how
// it ended, and the send/receive instants (nanoseconds on the gateway's
// trace timeline) the clock aligner uses as its NTP-style sample.
type AttemptRef struct {
	Ordinal  int    `json:"ordinal"`
	Backend  string `json:"backend"`
	Hedged   bool   `json:"hedged,omitempty"`
	Retry    bool   `json:"retry,omitempty"`
	Canceled bool   `json:"canceled,omitempty"`
	Status   int    `json:"status,omitempty"`
	Class    string `json:"class,omitempty"`
	SendNS   int64  `json:"send_ns"`
	RecvNS   int64  `json:"recv_ns"`
}

// Tracer retains completed request traces for /debug/spans. Retention
// combines three fixed-size samples so both "what does a normal request
// look like" and "what did the slow ones do" stay answerable without
// unbounded memory:
//
//   - head: the first headN traces ever captured (cold-start behaviour,
//     cache builds, pool construction);
//   - recent: a ring of the last ringN traces;
//   - slow: the slowN largest-duration traces (tail latency).
//
// A trace can appear in several samples; Traces deduplicates.
//
// The tracer is the only owner of what it retains: Add hands a trace over
// for good, and readers get copies. That is what lets the span slice of a
// trace that has aged out of every sample back the next trace (spanBuf)
// instead of every request allocating its own.
type Tracer struct {
	mu     sync.Mutex
	head   []*Trace
	headN  int
	recent []*Trace // ring, len ringN once full
	next   int
	ringN  int
	slow   []*Trace
	slowN  int
	free   [][]Span // span slices of aged-out traces, for spanBuf
}

// maxFreeSpanBufs bounds the free list. An Add retires at most two traces
// and is preceded by one spanBuf, so more than a few only pile up when
// callers stop asking.
const maxFreeSpanBufs = 8

// DefaultRing is the recent-trace ring size a non-positive ring
// argument to NewTracer gets.
const DefaultRing = 64

// NewTracer returns a tracer retaining ring recent traces, head
// first-ever traces and slow slowest traces (non-positive arguments get
// defaults of DefaultRing, 16 and 16).
func NewTracer(ring, head, slow int) *Tracer {
	if ring <= 0 {
		ring = DefaultRing
	}
	if head <= 0 {
		head = 16
	}
	if slow <= 0 {
		slow = 16
	}
	return &Tracer{headN: head, ringN: ring, slowN: slow}
}

// Capture turns a request's finished recorder into the Trace to Add — tr
// with fs's spans and drop count — and returns the recorder to the pool
// GetSpans draws from. Call it once, after every goroutine recording into
// fs is done; fs is gone afterwards. On a nil tracer (traces not
// retained) it only recycles fs and returns nil, allocating nothing.
func (t *Tracer) Capture(fs *FrameSpans, tr Trace) *Trace {
	var out *Trace
	if t != nil {
		spans := fs.Spans()
		tr.Spans = append(t.spanBuf(len(spans)), spans...)
		tr.Dropped = fs.Dropped()
		out = new(Trace) // not &tr: that would move tr to the heap on every call
		*out = tr
	}
	recorders.Put(fs)
	return out
}

// spanBuf returns an empty span slice with room for n spans, to become
// the Spans of a trace about to be Added: the slice of a trace that has
// aged out when one is large enough, a new one otherwise.
func (t *Tracer) spanBuf(n int) []Span {
	t.mu.Lock()
	for i, buf := range t.free {
		if cap(buf) >= n {
			last := len(t.free) - 1
			t.free[i], t.free[last] = t.free[last], nil
			t.free = t.free[:last]
			t.mu.Unlock()
			return buf
		}
	}
	t.mu.Unlock()
	// Rounded up so that requests whose span counts differ by a steal or
	// two can still use each other's slices.
	return make([]Span, 0, (n+31)&^31)
}

// Add retains a completed trace under the sampling policy. The tracer
// takes ownership of tr, its spans included: the caller must not touch it
// afterwards.
func (t *Tracer) Add(tr *Trace) {
	if t == nil || tr == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out [2]*Trace // what this Add pushes out of the ring and the slow sample
	if len(t.head) < t.headN {
		t.head = append(t.head, tr)
	}
	if len(t.recent) < t.ringN {
		t.recent = append(t.recent, tr)
	} else {
		out[0] = t.recent[t.next]
		t.recent[t.next] = tr
		t.next = (t.next + 1) % t.ringN
	}
	if len(t.slow) < t.slowN {
		t.slow = append(t.slow, tr)
	} else {
		min, minDur := -1, tr.DurNS
		for i, s := range t.slow {
			if s.DurNS < minDur {
				min, minDur = i, s.DurNS
			}
		}
		if min >= 0 {
			out[1] = t.slow[min]
			t.slow[min] = tr
		}
	}
	for _, old := range out {
		if old != nil && cap(old.Spans) > 0 && len(t.free) < maxFreeSpanBufs && !t.retains(old) {
			t.free = append(t.free, old.Spans[:0])
			old.Spans = nil
		}
	}
}

// retains reports whether any sample still holds tr. Caller holds mu.
func (t *Tracer) retains(tr *Trace) bool {
	return slices.Contains(t.head, tr) || slices.Contains(t.recent, tr) || slices.Contains(t.slow, tr)
}

// Traces returns copies of the retained traces, deduplicated and ordered
// by start time.
func (t *Tracer) Traces() []*Trace {
	return t.collect(func(*Trace) bool { return true })
}

// collect copies out the retained traces match accepts, ordered by start
// time.
func (t *Tracer) collect(match func(*Trace) bool) []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Dedup by pointer, not ID: the three samples share pointers, but
	// distinct traces may legitimately share a fleet trace ID (one
	// backend serving both the first try and a retry of one request).
	seen := make(map[*Trace]bool)
	var out []*Trace
	for _, group := range [][]*Trace{t.head, t.recent, t.slow} {
		for _, tr := range group {
			if !seen[tr] && match(tr) {
				seen[tr] = true
				c := *tr
				c.Spans = append(make([]Span, 0, len(tr.Spans)), tr.Spans...)
				c.Attempts = append([]AttemptRef(nil), tr.Attempts...)
				out = append(out, &c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartNS < out[j].StartNS })
	return out
}

// Find returns a copy of the retained trace with the given ID (the
// earliest, when several share it), or nil.
func (t *Tracer) Find(id uint64) *Trace {
	if all := t.collect(func(tr *Trace) bool { return tr.ID == id }); len(all) > 0 {
		return all[0]
	}
	return nil
}

// findAll returns copies of every retained trace with the given ID,
// ordered by attempt then start time. A backend that served several
// attempts of one fleet request (first try and a later retry) retains one
// trace per attempt under the shared ID; the stitcher needs all of them.
func (t *Tracer) findAll(id uint64) []*Trace {
	out := t.collect(func(tr *Trace) bool { return tr.ID == id })
	sort.SliceStable(out, func(i, j int) bool { return out[i].Attempt < out[j].Attempt })
	return out
}

// chromeEvent is one Chrome trace-event (the "Trace Event Format"
// loadable by chrome://tracing and https://ui.perfetto.dev).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	PID  uint64         `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the trace-event format.
// Stitch, set only by WriteStitchedChromeTrace, carries the stitching
// summary (per-row clock offsets and failure notes); viewers ignore
// unknown top-level keys.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	Stitch          any           `json:"stitch,omitempty"`
}

// WriteChromeTrace emits traces as Chrome trace-event JSON: one process
// per request (pid = trace ID, named by the trace label), one thread
// per render worker plus a request lane at tid 0, and one complete
// ("ph":"X") event per span. Timestamps are shared across traces, so
// overlapping requests appear concurrent in the viewer.
func WriteChromeTrace(w io.Writer, traces []*Trace) error {
	ct := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	for _, tr := range traces {
		pid := tr.ID
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": fmt.Sprintf("req %d: %s", tr.ID, tr.Label)},
		})
		lanes := map[int]bool{}
		for _, sp := range tr.Spans {
			tid := sp.Worker + 1 // request lane -1 -> tid 0
			if !lanes[tid] {
				lanes[tid] = true
				name := "request"
				if sp.Worker >= 0 {
					name = fmt.Sprintf("worker %d", sp.Worker)
				}
				ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
					Name: "thread_name", Ph: "M", PID: pid, TID: tid,
					Args: map[string]any{"name": name},
				})
			}
			ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
				Name: sp.Name, Cat: sp.Cat, Ph: "X",
				TS: float64(sp.StartNS) / 1e3, Dur: float64(sp.DurNS) / 1e3,
				PID: pid, TID: tid,
				Args: map[string]any{"status": tr.Status},
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(ct)
}

// StitchedRow is one process's contribution to a stitched fleet trace:
// the gateway's own trace, or one backend trace per attempt the fleet
// request made. OffsetNS shifts the row's span timestamps onto the
// gateway's timeline (the clock-alignment estimate). A row whose span
// data could not be fetched (dead backend, evicted trace, attempt that
// never reached a backend) carries Err and a nil Trace — it is marked
// in the output rather than dropped.
type StitchedRow struct {
	Label    string
	Trace    *Trace
	OffsetNS int64
	Canceled bool
	Err      string
}

// stitchRowInfo is one row's entry in the stitch summary.
type stitchRowInfo struct {
	Label    string `json:"label"`
	OffsetNS int64  `json:"offset_ns"`
	Spans    int    `json:"spans"`
	Canceled bool   `json:"canceled,omitempty"`
	Err      string `json:"err,omitempty"`
}

// WriteStitchedChromeTrace merges the rows of one fleet trace into a
// single Chrome trace-event document: one process per row (pid = row
// ordinal, starting at 1), named by the row label, with every span
// shifted by the row's clock offset so gateway and backend spans share
// the gateway's timeline. Rows without span data still emit their
// process_name metadata (with the error in args) so a viewer — and the
// chaos suite — can see that an attempt existed even when its spans are
// gone. The top-level "stitch" object summarizes per-row offsets and
// failures for programmatic consumers.
func WriteStitchedChromeTrace(w io.Writer, id uint64, rows []StitchedRow) error {
	ct := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	summary := struct {
		ID   uint64          `json:"id"`
		Rows []stitchRowInfo `json:"rows"`
	}{ID: id, Rows: []stitchRowInfo{}}

	for i, row := range rows {
		pid := uint64(i + 1)
		info := stitchRowInfo{Label: row.Label, OffsetNS: row.OffsetNS, Canceled: row.Canceled, Err: row.Err}
		args := map[string]any{"trace_id": id}
		if row.Canceled {
			args["canceled"] = true
		}
		if row.Err != "" {
			args["err"] = row.Err
		}
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: mergeArgs(map[string]any{"name": row.Label}, args),
		})
		if row.Trace != nil {
			info.Spans = len(row.Trace.Spans)
			lanes := map[int]bool{}
			for _, sp := range row.Trace.Spans {
				tid := sp.Worker + 1
				if !lanes[tid] {
					lanes[tid] = true
					name := "request"
					if sp.Worker >= 0 {
						name = fmt.Sprintf("worker %d", sp.Worker)
					}
					ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
						Name: "thread_name", Ph: "M", PID: pid, TID: tid,
						Args: map[string]any{"name": name},
					})
				}
				ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
					Name: sp.Name, Cat: sp.Cat, Ph: "X",
					TS:  float64(sp.StartNS+row.OffsetNS) / 1e3,
					Dur: float64(sp.DurNS) / 1e3,
					PID: pid, TID: tid,
					Args: map[string]any{"status": row.Trace.Status},
				})
			}
		}
		summary.Rows = append(summary.Rows, info)
	}
	ct.Stitch = summary
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(ct)
}

// mergeArgs overlays b onto a copy of a.
func mergeArgs(a, b map[string]any) map[string]any {
	out := make(map[string]any, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}

// Breakdown derives one frame's Figure 5/6 accounting from its spans into
// fb: the one computation behind the renderers' LastBreakdown, Timeline and
// the server's phase metrics. Request-lane spans (worker < 0) are skipped.
// Per worker, busy time by phase is the sum of its busy spans by phase name,
// WaitNS the sum of its sync spans and TotalNS the sum of all its spans; the
// frame's WallNS is the envelope of the worker spans, and a worker's
// imbalance is what of that wall its spans do not account for, wall −
// TotalNS clamped at zero (for a renderer's spans, wall − busy − wait). Rows
// cover workers or the highest worker recorded, whichever is more, and
// reuse fb.PerWorker; the work counters are left zero for the caller to
// fill from the renderers' own per-worker statistics. Spans a recorder
// dropped cannot be accounted for, so with dropped > 0 Breakdown leaves fb
// without workers and reports false.
func Breakdown(fb *perf.FrameBreakdown, workers int, spans []Span, dropped int64) bool {
	fb.Workers, fb.WallNS, fb.PerWorker = 0, 0, fb.PerWorker[:0]
	if dropped > 0 {
		return false
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, sp := range spans {
		if sp.Worker >= 0 {
			workers = max(workers, sp.Worker+1)
			lo, hi = min(lo, sp.StartNS), max(hi, sp.StartNS+sp.DurNS)
		}
	}
	fb.Workers = workers
	fb.PerWorker = slices.Grow(fb.PerWorker, workers)[:workers]
	clear(fb.PerWorker)
	if hi > lo {
		fb.WallNS = hi - lo
	}
	for _, sp := range spans {
		if sp.Worker < 0 {
			continue
		}
		w := &fb.PerWorker[sp.Worker]
		w.TotalNS += sp.DurNS
		if sp.Cat == CatSync {
			w.WaitNS += sp.DurNS
			continue
		}
		switch sp.Name { // the perf.Phase names of the busy phases
		case "clear":
			w.ClearNS += sp.DurNS
		case "composite-own":
			w.CompositeOwnNS += sp.DurNS
		case "composite-steal":
			w.CompositeStealNS += sp.DurNS
		case "warp":
			w.WarpNS += sp.DurNS
		}
	}
	for i := range fb.PerWorker {
		w := &fb.PerWorker[i]
		w.Worker = i
		w.ImbalanceNS = max(fb.WallNS-w.TotalNS, 0)
	}
	return true
}

// Timeline renders one trace as the paper's Figure 5/6 per-worker
// execution-time bars — the rows of its Breakdown: for each worker, busy
// time (computation), sync time (tracked waits) and the rest of the frame's
// wall clock as load imbalance, with a proportional bar (B = busy, S =
// sync, . = imbalance). Busy is every recorded span that is not a wait:
// exactly the breakdown's BusyNS for a renderer's spans, and still
// meaningful for lanes whose busy spans are not render phases (the
// gateway's attempt lanes).
func Timeline(tr *Trace) string {
	const barWidth = 40
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d: %s (status %d, %.3fms)\n", tr.ID, tr.Label, tr.Status, float64(tr.DurNS)/1e6)
	var fb perf.FrameBreakdown
	if !Breakdown(&fb, 0, tr.Spans, tr.Dropped) {
		fmt.Fprintf(&b, "%d spans dropped: no breakdown\n", tr.Dropped)
		return b.String()
	}
	if fb.Workers == 0 {
		b.WriteString("no worker spans captured\n")
		return b.String()
	}
	wall := max(fb.WallNS, 1)
	fmt.Fprintf(&b, "frame wall %.3fms over %d workers; bars: B busy, S sync, . imbalance\n",
		float64(fb.WallNS)/1e6, fb.Workers)
	fmt.Fprintf(&b, "%-6s  %10s  %10s  %10s  bar\n", "proc", "busy(ms)", "sync(ms)", "imbal(ms)")
	for i := range fb.PerWorker {
		w := &fb.PerWorker[i]
		busy := w.TotalNS - w.WaitNS
		nb := min(int(float64(busy)/float64(wall)*barWidth), barWidth)
		ns := min(int(float64(w.WaitNS)/float64(wall)*barWidth), barWidth-nb)
		bar := strings.Repeat("B", nb) + strings.Repeat("S", ns) + strings.Repeat(".", barWidth-nb-ns)
		fmt.Fprintf(&b, "%-6d  %10.3f  %10.3f  %10.3f  |%s|\n",
			w.Worker, float64(busy)/1e6, float64(w.WaitNS)/1e6, float64(w.ImbalanceNS)/1e6, bar)
	}
	return b.String()
}
