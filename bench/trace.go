package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The benchmark's own span recorder. Nothing inside the program is
// instrumented: a span is appended around each call into a layer, from
// the benchmark's side of the call. Spans stay in memory and are written
// out when the run ends.

// span is one timed call into a layer. Spans of one frame or request share
// a trace; Parent is the span that caused this one (0: none). Where a
// frame is re-executed layer by layer (HTTP, then handler in-process, then
// library render, then encode), the parent is the enclosing layer's
// execution of the same frame.
type span struct {
	Trace   int64  `json:"trace"`
	Span    int64  `json:"span"`
	Parent  int64  `json:"parent"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Count   int64  `json:"count"`
}

type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	traces int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) newTrace() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traces++
	return r.traces
}

// begin opens a span and returns its ID.
func (r *recorder) begin(trace, parent int64, layer, name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{Trace: trace, Span: id, Parent: parent, Layer: layer, Name: name, StartNS: int64(time.Since(r.epoch))})
	return id
}

// end closes a span, attaches the work count measured at its boundary, and
// returns its duration.
func (r *recorder) end(id, count int64) time.Duration {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNS, s.Count = now, count
	return time.Duration(s.EndNS - s.StartNS)
}

// call times one call into a layer as a span.
func (r *recorder) call(trace, parent int64, layer, name string, f func() (count int64)) time.Duration {
	id := r.begin(trace, parent, layer, name)
	return r.end(id, f())
}

// layerTime is what a layer's spans add up to.
type layerTime struct {
	Layer  string
	Spans  int
	Total  time.Duration
	Self   time.Duration // total minus the part its child spans cover
	Counts int64
}

// selfTimes folds the spans by layer: a layer's self time is its spans'
// duration minus their children's.
func (r *recorder) selfTimes() []layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int64]int64)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.EndNS - s.StartNS
		}
	}
	by := make(map[string]*layerTime)
	for _, s := range r.spans {
		lt := by[s.Layer]
		if lt == nil {
			lt = &layerTime{Layer: s.Layer}
			by[s.Layer] = lt
		}
		d := s.EndNS - s.StartNS
		lt.Spans++
		lt.Total += time.Duration(d)
		lt.Self += time.Duration(d - children[s.Span])
		lt.Counts += s.Count
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format;
// the span's own fields ride along in args.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	PID  int     `json:"pid"`
	TID  int     `json:"tid"` // one lane per layer
	Args span    `json:"args"`
}

// write stores the spans as dir/trace-<workload>.json, loadable in
// chrome://tracing or Perfetto.
func (r *recorder) write(dir, workload string, e env) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	lanes := make(map[string]int)
	events := make([]chromeEvent, len(r.spans))
	for i, s := range r.spans {
		if _, ok := lanes[s.Layer]; !ok {
			lanes[s.Layer] = len(lanes) + 1
		}
		events[i] = chromeEvent{
			Name: s.Layer + "." + s.Name, Cat: s.Layer, Ph: "X",
			TS: float64(s.StartNS) / 1e3, Dur: float64(s.EndNS-s.StartNS) / 1e3,
			PID: 1, TID: lanes[s.Layer], Args: s,
		}
	}
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		OtherData       env           `json:"otherData"`
	}{events, "ms", e}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
