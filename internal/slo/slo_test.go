package slo

import (
	"log/slog"
	"math"
	"strings"
	"testing"
	"time"
)

// fakeClock advances only when told — the engine's windows become fully
// deterministic.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// counterSource is a hand-driven cumulative counter pair.
type counterSource struct{ good, total int64 }

func (s *counterSource) read() (int64, int64) { return s.good, s.total }

// addTraffic records n requests, bad of which were bad.
func (s *counterSource) addTraffic(n, bad int64) {
	s.total += n
	s.good += n - bad
}

func newTestEngine(t *testing.T, obj Objective, src *counterSource, clk *fakeClock) *Engine {
	t.Helper()
	e, err := New([]Objective{obj}, []Source{src.read}, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestParseSpec(t *testing.T) {
	objs, err := Parse("latency@/render:le=250ms:target=99%:window=1h:fast=30s:slow=5m:burn=4;availability@/render:target=99.9%")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("parsed %d objectives, want 2", len(objs))
	}
	l := objs[0]
	if l.Kind != Latency || l.Endpoint != "/render" || l.ThresholdNS != int64(250*time.Millisecond) {
		t.Fatalf("latency objective = %+v", l)
	}
	if l.Target != 0.99 || l.Window != time.Hour || l.FastWindow != 30*time.Second ||
		l.SlowWindow != 5*time.Minute || l.BurnThreshold != 4 {
		t.Fatalf("latency tuning = %+v", l)
	}
	if l.Name != "latency@/render" {
		t.Fatalf("default name = %q", l.Name)
	}
	a := objs[1]
	if a.Kind != Availability || math.Abs(a.Target-0.999) > 1e-9 {
		t.Fatalf("availability objective = %+v", a)
	}
	// Defaults applied.
	if a.Window != time.Hour || a.FastWindow != time.Minute || a.SlowWindow != 10*time.Minute || a.BurnThreshold != 2 {
		t.Fatalf("availability defaults = %+v", a)
	}

	// The default spec must parse.
	if _, err := Parse(DefaultSpec); err != nil {
		t.Fatalf("DefaultSpec does not parse: %v", err)
	}
	// Empty spec means no objectives.
	if objs, err := Parse(" "); err != nil || objs != nil {
		t.Fatalf("empty spec: %v, %v", objs, err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"latency:/render",                        // missing @
		"speed@/render:target=99%",               // unknown kind
		"latency@/render:target=99%",             // latency without le
		"latency@/render:le=10ms:target=101%",    // target out of range
		"latency@/render:le=10ms:target=99%:x=1", // unknown param
		"latency@/render:le=banana:target=99%",   // bad duration
		"latency@/render:le=10ms:target=99%:burn=-1",
		"latency@/render:le=10ms:target=99%:fast=1h:slow=1m", // windows don't nest
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted a bad spec", spec)
		}
	}
	// Duplicate names rejected at engine construction.
	objs, err := Parse("latency@/render:le=10ms:target=99%;latency@/render:le=20ms:target=99%")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(objs, []Source{func() (int64, int64) { return 0, 0 }, func() (int64, int64) { return 0, 0 }}, nil); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate objective names accepted: %v", err)
	}
}

// TestNoTrafficIsCompliant: an idle service burns no budget and alerts
// on nothing, and no figure is NaN.
func TestNoTrafficIsCompliant(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	src := &counterSource{}
	e := newTestEngine(t, Objective{
		Kind: Latency, Endpoint: "/render", ThresholdNS: int64(100 * time.Millisecond), Target: 0.99,
	}, src, clk)
	for i := 0; i < 10; i++ {
		e.Tick()
		clk.advance(10 * time.Second)
	}
	st := e.Status()[0]
	if !st.Compliant || st.Compliance != 1 || st.Alerting {
		t.Fatalf("idle objective not vacuously compliant: %+v", st)
	}
	if st.FastBurn != 0 || st.SlowBurn != 0 || st.BudgetRemaining != 1 {
		t.Fatalf("idle objective burned budget: %+v", st)
	}
}

// TestBurnAlertFlipsAndResets is the core contract: a deliberately
// violated objective flips the burn-rate alert once both windows burn
// hot, and the alert resets once the fast window runs clean again.
func TestBurnAlertFlipsAndResets(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	src := &counterSource{}
	e := newTestEngine(t, Objective{
		Kind: Availability, Endpoint: "/render", Target: 0.99,
		Window: 30 * time.Minute, FastWindow: time.Minute, SlowWindow: 5 * time.Minute,
		BurnThreshold: 2,
	}, src, clk)

	tick := func(minutes int, perTick, badPerTick int64) {
		for i := 0; i < minutes*6; i++ { // 10s ticks
			src.addTraffic(perTick, badPerTick)
			clk.advance(10 * time.Second)
			e.Tick()
		}
	}

	// 10 minutes of clean traffic: compliant, no alert, budget intact.
	tick(10, 10, 0)
	st := e.Status()[0]
	if st.Alerting || !st.Compliant || st.BudgetRemaining < 0.999 {
		t.Fatalf("clean traffic: %+v", st)
	}

	// Full outage: every request bad. Burn = 1/0.01 = 100x on any
	// window that saw the outage; after > SlowWindow of badness both
	// windows burn and the alert must be up.
	tick(6, 10, 10)
	st = e.Status()[0]
	if st.FastBurn < 2 || st.SlowBurn < 2 {
		t.Fatalf("outage did not raise burn rates: %+v", st)
	}
	if !st.Alerting {
		t.Fatalf("outage did not flip the alert: %+v", st)
	}
	if st.Compliant {
		t.Fatalf("outage left objective compliant: %+v", st)
	}
	if st.BudgetRemaining >= 0 {
		t.Fatalf("outage left error budget: %+v", st)
	}

	// Recovery: clean traffic again. After the fast window runs clean
	// the alert resets, even though the slow window still remembers.
	tick(2, 10, 0)
	st = e.Status()[0]
	if st.FastBurn != 0 {
		t.Fatalf("fast window still burning after recovery: %+v", st)
	}
	if st.SlowBurn == 0 {
		t.Fatalf("slow window forgot the outage too quickly: %+v", st)
	}
	if st.Alerting {
		t.Fatalf("alert stuck after recovery: %+v", st)
	}
}

// TestWindowShorterThanHistory: with history younger than the window,
// deltas anchor at the oldest sample instead of reporting nothing.
func TestWindowShorterThanHistory(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	src := &counterSource{}
	e := newTestEngine(t, Objective{
		Kind: Availability, Endpoint: "/x", Target: 0.9, Window: 24 * time.Hour,
		FastWindow: time.Minute, SlowWindow: time.Hour,
	}, src, clk)
	e.Tick()
	src.addTraffic(100, 50)
	clk.advance(30 * time.Second)
	e.Tick()
	st := e.Status()[0]
	if st.Total != 100 || st.Good != 50 {
		t.Fatalf("young history delta = %d/%d, want 50/100", st.Good, st.Total)
	}
}

// TestCounterResetTolerated: a source that goes backwards (process
// restart upstream) reads as an empty window, not a negative one.
func TestCounterResetTolerated(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	src := &counterSource{good: 1000, total: 1000}
	e := newTestEngine(t, Objective{
		Kind: Availability, Endpoint: "/x", Target: 0.9,
	}, src, clk)
	e.Tick()
	clk.advance(10 * time.Second)
	src.good, src.total = 5, 5 // reset
	e.Tick()
	st := e.Status()[0]
	if st.Total != 0 || st.FastBurn != 0 || st.Alerting {
		t.Fatalf("counter reset produced nonsense: %+v", st)
	}
}

// TestSamplePruning: history never grows past the budget window (plus
// the anchor sample).
func TestSamplePruning(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	src := &counterSource{}
	e := newTestEngine(t, Objective{
		Kind: Availability, Endpoint: "/x", Target: 0.9,
		Window: 5 * time.Minute, FastWindow: 30 * time.Second, SlowWindow: time.Minute,
	}, src, clk)
	for i := 0; i < 1000; i++ {
		src.addTraffic(1, 0)
		e.Tick()
		clk.advance(10 * time.Second)
	}
	e.mu.Lock()
	n := len(e.objs[0].samples)
	e.mu.Unlock()
	// 5 minutes at 10s ticks is 30 samples; allow the anchor and edges.
	if n > 34 {
		t.Fatalf("sample history grew to %d entries for a 5m window at 10s ticks", n)
	}
}

func TestSortStatuses(t *testing.T) {
	sts := []Status{
		{Name: "b", BudgetRemaining: 0.5},
		{Name: "a", BudgetRemaining: 0.9},
		{Name: "c", Alerting: true, BudgetRemaining: 1},
	}
	sortStatuses(sts)
	if sts[0].Name != "c" || sts[1].Name != "b" || sts[2].Name != "a" {
		t.Fatalf("sort order: %v %v %v", sts[0].Name, sts[1].Name, sts[2].Name)
	}
}

// TestBuildObjectiveLists pins Build's two list meanings: nil runs
// DefaultSpec, an empty non-nil list runs no engine.
func TestBuildObjectiveLists(t *testing.T) {
	src := func(Objective) Source { return func() (int64, int64) { return 0, 0 } }
	log := slog.New(slog.DiscardHandler)
	if e := Build(nil, src, log); e == nil || len(e.Statuses()) != 2 {
		t.Fatalf("Build(nil): want the two DefaultSpec objectives, got %v", e)
	}
	if e := Build([]Objective{}, src, log); e != nil {
		t.Fatalf("Build(empty): want no engine, got %v", e)
	}
}
