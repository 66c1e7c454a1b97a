package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFrameSpansConcurrent(t *testing.T) {
	epoch := time.Now()
	fs := NewFrameSpans(epoch)
	const workers, per = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				fs.Record(w, "composite-own", CatBusy, epoch.Add(time.Duration(i)*time.Microsecond), time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	spans := fs.Spans()
	if len(spans) != workers*per {
		t.Fatalf("got %d spans, want %d", len(spans), workers*per)
	}
	if fs.Dropped() != 0 {
		t.Fatalf("dropped %d, want 0", fs.Dropped())
	}
	perWorker := map[int]int{}
	for _, sp := range spans {
		perWorker[sp.Worker]++
		if sp.Name != "composite-own" || sp.Cat != CatBusy {
			t.Fatalf("corrupted span %+v", sp)
		}
	}
	for w := 0; w < workers; w++ {
		if perWorker[w] != per {
			t.Fatalf("worker %d recorded %d spans, want %d", w, perWorker[w], per)
		}
	}
}

func TestFrameSpansOverflowAndReset(t *testing.T) {
	epoch := time.Now()
	fs := NewFrameSpans(epoch)
	for i := 0; i < maxFrameSpans+30; i++ {
		fs.Record(0, "s", CatBusy, epoch, time.Nanosecond)
	}
	if got := len(fs.Spans()); got != maxFrameSpans {
		t.Fatalf("len %d, want cap %d", got, maxFrameSpans)
	}
	if fs.Dropped() != 30 {
		t.Fatalf("dropped %d, want 30", fs.Dropped())
	}
	fs.Reset(epoch.Add(time.Second))
	if len(fs.Spans()) != 0 || fs.Dropped() != 0 {
		t.Fatal("reset did not clear recorder")
	}
	fs.Record(1, "after", CatSync, epoch.Add(time.Second+time.Millisecond), time.Millisecond)
	sp := fs.Spans()
	if len(sp) != 1 || sp[0].StartNS != int64(time.Millisecond) {
		t.Fatalf("post-reset span %+v, want start rebased to new epoch", sp)
	}
}

func TestFrameSpansNil(t *testing.T) {
	var fs *FrameSpans
	fs.Record(0, "x", CatBusy, time.Now(), time.Second) // must not panic
	fs.Reset(time.Now())
	if fs.Spans() != nil || fs.Dropped() != 0 {
		t.Fatal("nil recorder not empty")
	}
}

// mkTrace builds a trace with the given id, start and duration.
func mkTrace(id uint64, startNS, durNS int64) *Trace {
	return &Trace{ID: id, Label: "render", StartNS: startNS, DurNS: durNS, Status: 200}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(4, 2, 2) // ring 4, head 2, slow 2
	// 10 traces; trace 5 and 6 are the slowest.
	for i := 1; i <= 10; i++ {
		dur := int64(i * 1000)
		if i == 5 || i == 6 {
			dur = int64(1e9) + int64(i)
		}
		tr.Add(mkTrace(uint64(i), int64(i), dur))
	}
	got := map[uint64]bool{}
	for _, x := range tr.Traces() {
		got[x.ID] = true
	}
	// head keeps 1,2; ring keeps 7,8,9,10; slow keeps 5,6.
	for _, want := range []uint64{1, 2, 5, 6, 7, 8, 9, 10} {
		if !got[want] {
			t.Fatalf("trace %d missing from retention; have %v", want, got)
		}
	}
	if got[3] || got[4] {
		t.Fatalf("traces 3/4 should have aged out; have %v", got)
	}
	// Ordered by start.
	ts := tr.Traces()
	for i := 1; i < len(ts); i++ {
		if ts[i].StartNS < ts[i-1].StartNS {
			t.Fatal("Traces not ordered by start")
		}
	}
	if tr.Find(7) == nil || tr.Find(3) != nil {
		t.Fatal("Find mismatch")
	}
}

// TestTracerCapture: Capture copies a recorder's spans and drop count
// into the trace it returns and recycles the recorder; a nil tracer (traces
// not retained) returns nothing and retains nothing.
func TestTracerCapture(t *testing.T) {
	tr := NewTracer(8, 2, 2)
	fs := GetSpans()
	at := time.Now()
	fs.Record(0, "warp", CatBusy, at, time.Millisecond)
	fs.Record(-1, "encode", CatRequest, at, 2*time.Millisecond)
	got := tr.Capture(fs, Trace{ID: 9, Label: "x", StartNS: SinceEpoch(at)})
	if got == nil || got.ID != 9 || got.Label != "x" || len(got.Spans) != 2 || got.Dropped != 0 {
		t.Fatalf("captured %+v", got)
	}
	if got.Spans[0].Name != "warp" || got.Spans[0].StartNS != got.StartNS || got.Spans[1].DurNS != 2e6 {
		t.Fatalf("spans not on the trace's timeline: %+v", got.Spans)
	}

	var nilT *Tracer
	if nilT.Capture(GetSpans(), Trace{ID: 1}) != nil {
		t.Fatal("nil tracer captured a trace")
	}
	nilT.Add(mkTrace(2, 0, 1))
	if nilT.Traces() != nil {
		t.Fatal("nil tracer retained traces")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := &Trace{ID: 7, Label: "render yaw=30", StartNS: 0, DurNS: 3_000_000, Status: 200, Spans: []Span{
		{Name: "admission", Cat: CatRequest, Worker: -1, StartNS: 0, DurNS: 10_000},
		{Name: "composite-own", Cat: CatBusy, Worker: 0, StartNS: 20_000, DurNS: 1_000_000},
		{Name: "wait", Cat: CatSync, Worker: 1, StartNS: 20_000, DurNS: 500_000},
		{Name: "warp", Cat: CatBusy, Worker: 1, StartNS: 520_000, DurNS: 400_000},
	}}
	var b strings.Builder
	if err := WriteChromeTrace(&b, []*Trace{tr}); err != nil {
		t.Fatalf("write: %v", err)
	}
	var got struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  uint64  `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatalf("output is not valid trace-event JSON: %v\n%s", err, b.String())
	}
	if got.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", got.DisplayTimeUnit)
	}
	var x, meta int
	for _, ev := range got.TraceEvents {
		switch ev.Ph {
		case "X":
			x++
			if ev.PID != 7 {
				t.Fatalf("event pid %d, want trace id 7", ev.PID)
			}
			if ev.Name == "warp" {
				if ev.TID != 2 { // worker 1 -> tid 2
					t.Fatalf("warp tid %d, want 2", ev.TID)
				}
				if ev.TS != 520 || ev.Dur != 400 { // µs
					t.Fatalf("warp ts/dur %.1f/%.1f, want 520/400", ev.TS, ev.Dur)
				}
			}
			if ev.Name == "admission" && ev.TID != 0 {
				t.Fatalf("request-lane tid %d, want 0", ev.TID)
			}
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if x != len(tr.Spans) {
		t.Fatalf("%d complete events, want %d", x, len(tr.Spans))
	}
	if meta < 4 { // process_name + 3 thread lanes
		t.Fatalf("%d metadata events, want >= 4", meta)
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var b strings.Builder
	if err := WriteChromeTrace(&b, nil); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !strings.Contains(b.String(), `"traceEvents": []`) {
		t.Fatalf("empty trace must still carry traceEvents array:\n%s", b.String())
	}
}

func TestTimeline(t *testing.T) {
	// Worker 0 fully busy; worker 1 half busy, quarter sync, rest imbalance.
	tr := &Trace{ID: 3, Label: "render", DurNS: 4_000_000, Status: 200, Spans: []Span{
		{Name: "composite-own", Cat: CatBusy, Worker: 0, StartNS: 0, DurNS: 4_000_000},
		{Name: "composite-own", Cat: CatBusy, Worker: 1, StartNS: 0, DurNS: 2_000_000},
		{Name: "wait", Cat: CatSync, Worker: 1, StartNS: 2_000_000, DurNS: 1_000_000},
		{Name: "admission", Cat: CatRequest, Worker: -1, StartNS: 0, DurNS: 50_000},
	}}
	out := Timeline(tr)
	for _, want := range []string{"trace 3", "proc", "busy(ms)", "sync(ms)", "imbal(ms)", "2 workers"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var w0, w1 string
	for _, l := range lines {
		if strings.HasPrefix(l, "0 ") {
			w0 = l
		}
		if strings.HasPrefix(l, "1 ") {
			w1 = l
		}
	}
	if w0 == "" || w1 == "" {
		t.Fatalf("missing worker rows:\n%s", out)
	}
	// Worker 0's bar is all B; worker 1's has B, S and imbalance dots.
	bar := func(row string) string {
		i, j := strings.Index(row, "|"), strings.LastIndex(row, "|")
		if i < 0 || j <= i {
			t.Fatalf("row has no bar: %s", row)
		}
		return row[i+1 : j]
	}
	if b0 := bar(w0); strings.Contains(b0, ".") || !strings.Contains(b0, "B") {
		t.Fatalf("worker 0 bar should be fully busy: %s", w0)
	}
	for _, ch := range []string{"B", "S", "."} {
		if !strings.Contains(bar(w1), ch) {
			t.Fatalf("worker 1 bar missing %q: %s", ch, w1)
		}
	}
	// No worker spans at all.
	empty := Timeline(&Trace{ID: 4, Label: "rejected", Status: 429, Spans: []Span{
		{Name: "admission", Cat: CatRequest, Worker: -1, StartNS: 0, DurNS: 10},
	}})
	if !strings.Contains(empty, "no worker spans") {
		t.Fatalf("want no-worker notice:\n%s", empty)
	}
}

// TestTracerRecyclesSpanSlices: the tracer owns what it retains, so the
// span slice of a trace that aged out of every sample backs a later trace,
// a slice still retained is never handed out, and what a reader was given
// is a copy no later Add can reach.
func TestTracerRecyclesSpanSlices(t *testing.T) {
	tr := NewTracer(4, 1, 1) // ring 4, head 1, slow 1
	add := func(id uint64, durNS int64) {
		spans := tr.spanBuf(3)
		for i := 0; i < 3; i++ {
			spans = append(spans, Span{Name: "s", Worker: i, StartNS: int64(id), DurNS: int64(id)})
		}
		tr.Add(&Trace{ID: id, StartNS: int64(id), DurNS: durNS, Spans: spans})
	}
	add(1, 10)  // head
	add(2, 1e9) // slowest: stays in the slow sample after the ring drops it
	for id := uint64(3); id <= 6; id++ {
		add(id, 10)
	}
	held := tr.Traces()

	allocs := testing.AllocsPerRun(50, func() { add(7, 10) })
	if allocs > 1 { // the Trace itself
		t.Errorf("steady-state trace costs %.0f allocations, want 1: span slices are not recycled", allocs)
	}
	for id := uint64(8); id <= 40; id++ {
		add(id, 10)
	}

	for _, x := range held {
		for i, sp := range x.Spans {
			if sp.StartNS != int64(x.ID) || sp.Worker != i {
				t.Fatalf("a reader's copy of trace %d changed under it: %+v", x.ID, x.Spans)
			}
		}
	}
	now := tr.Traces()
	ids := map[uint64]bool{}
	for _, x := range now {
		ids[x.ID] = true
		if len(x.Spans) != 3 {
			t.Fatalf("retained trace %d has %d spans, want 3", x.ID, len(x.Spans))
		}
		for _, sp := range x.Spans {
			if sp.StartNS != int64(x.ID) {
				t.Fatalf("retained trace %d holds another trace's spans: %+v", x.ID, x.Spans)
			}
		}
	}
	for _, want := range []uint64{1, 2, 37, 38, 39, 40} {
		if !ids[want] {
			t.Errorf("trace %d missing from retention; have %v", want, ids)
		}
	}
}
