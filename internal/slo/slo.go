// Package slo turns the render service's raw telemetry into judgments:
// declarative service-level objectives (latency and availability),
// evaluated continuously against the live counters, with multi-window
// burn rates and error-budget accounting in the style of the SRE
// workbook's alerting chapter.
//
// The engine is deliberately passive and clock-injectable: something
// else (the render service's ticker, or a test) calls Tick to sample
// the cumulative counters, and Status computes everything from the
// retained samples. That keeps the engine deterministic under test — a
// deliberately violated objective flips its alert on a fake clock — and
// keeps its cost off the request path entirely: requests touch only the
// counters they already touch; the engine reads them a few times a
// minute.
//
// Burn rate: an objective with target T has an error budget of (1-T).
// The burn rate over a window is the observed bad fraction divided by
// the budget — burn 1.0 spends the budget exactly at the rate the
// window allows, burn 10 spends it ten times too fast. An alert fires
// only when BOTH the fast and the slow window burn above the threshold:
// the slow window proves the problem is sustained (no paging on one
// slow request), the fast window makes the alert responsive and lets it
// reset quickly once the problem stops.
package slo

import (
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"shearwarp/internal/telemetry"
)

// Kind discriminates objective types.
type Kind string

const (
	// Latency objectives judge the fraction of requests at or under a
	// duration threshold (good = requests <= ThresholdNS).
	Latency Kind = "latency"
	// Availability objectives judge the fraction of requests that did
	// not fail server-side (good = requests without a 5xx response).
	Availability Kind = "availability"
)

// Objective is one declarative SLO. The zero values of the tuning
// fields get defaults from normalize.
type Objective struct {
	Name     string `json:"name"`
	Kind     Kind   `json:"kind"`
	Endpoint string `json:"endpoint"`
	// ThresholdNS is the latency cut-off for Latency objectives.
	ThresholdNS int64 `json:"threshold_ns,omitempty"`
	// Target is the required good fraction, e.g. 0.99 (must be in (0,1)).
	Target float64 `json:"target"`
	// Window is the error-budget window the compliance and
	// budget-remaining figures are computed over (default 1h).
	Window time.Duration `json:"window_ns"`
	// FastWindow and SlowWindow are the burn-rate alert windows
	// (defaults 1m and 10m). BurnThreshold is the rate both must exceed
	// to alert (default 2 — spending the budget twice too fast).
	FastWindow    time.Duration `json:"fast_window_ns"`
	SlowWindow    time.Duration `json:"slow_window_ns"`
	BurnThreshold float64       `json:"burn_threshold"`
}

func (o *Objective) normalize() error {
	if o.Kind != Latency && o.Kind != Availability {
		return fmt.Errorf("slo: unknown kind %q", o.Kind)
	}
	if o.Kind == Latency && o.ThresholdNS <= 0 {
		return fmt.Errorf("slo: latency objective %q needs a positive threshold", o.Name)
	}
	if !(o.Target > 0 && o.Target < 1) {
		return fmt.Errorf("slo: objective %q target %v outside (0,1)", o.Name, o.Target)
	}
	if o.Window <= 0 {
		o.Window = time.Hour
	}
	if o.SlowWindow <= 0 {
		o.SlowWindow = 10 * time.Minute
	}
	if o.FastWindow <= 0 {
		o.FastWindow = time.Minute
	}
	if o.BurnThreshold <= 0 {
		o.BurnThreshold = 2
	}
	if o.FastWindow > o.SlowWindow || o.SlowWindow > o.Window {
		return fmt.Errorf("slo: objective %q windows must nest: fast %v <= slow %v <= budget %v",
			o.Name, o.FastWindow, o.SlowWindow, o.Window)
	}
	if o.Name == "" {
		o.Name = string(o.Kind) + "@" + o.Endpoint
	}
	return nil
}

// Source reads one objective's cumulative counters: the total number of
// eligible requests so far and how many of them were good. Sources are
// read under the engine lock and must be cheap and non-blocking.
type Source func() (good, total int64)

// sample is one Tick's reading of a source.
type sample struct {
	at          time.Time
	good, total int64
}

// tracked is one objective plus its sample history.
type tracked struct {
	obj     Objective
	src     Source
	samples []sample // ascending by time, pruned to the budget window
}

// Engine evaluates a fixed set of objectives. Construct with New; call
// Tick periodically (the render service runs a ticker); read Status
// whenever. Safe for concurrent use.
type Engine struct {
	now func() time.Time

	mu   sync.Mutex
	objs []*tracked
}

// New builds an engine over objectives and their sources (parallel
// slices). now is the clock — nil means time.Now; tests inject a fake.
func New(objectives []Objective, sources []Source, now func() time.Time) (*Engine, error) {
	if len(objectives) != len(sources) {
		return nil, fmt.Errorf("slo: %d objectives but %d sources", len(objectives), len(sources))
	}
	if now == nil {
		now = time.Now
	}
	e := &Engine{now: now}
	seen := map[string]bool{}
	for i := range objectives {
		o := objectives[i]
		if err := o.normalize(); err != nil {
			return nil, err
		}
		if seen[o.Name] {
			return nil, fmt.Errorf("slo: duplicate objective name %q", o.Name)
		}
		seen[o.Name] = true
		e.objs = append(e.objs, &tracked{obj: o, src: sources[i]})
	}
	return e, nil
}

// Build is how a daemon makes its engine: objs (nil runs DefaultSpec; an
// empty, non-nil list runs no engine and returns nil), each read through
// the Source the daemon's source func maps it to. An
// objective mapped to nil (an endpoint the daemon cannot answer for) is
// skipped with a log line; objectives New refuses (duplicate names) are
// logged and give a nil engine, which disables SLOs rather than the
// daemon. The first Tick anchors the windows, so the first read already
// has a base.
func Build(objs []Objective, source func(Objective) Source, log *slog.Logger) *Engine {
	if objs == nil {
		objs, _ = Parse(DefaultSpec)
	} else if len(objs) == 0 {
		return nil
	}
	kept := make([]Objective, 0, len(objs))
	srcs := make([]Source, 0, len(objs))
	for _, o := range objs {
		src := source(o)
		if src == nil {
			log.Error("slo objective skipped: its endpoint has no source here",
				"name", o.Name, "endpoint", o.Endpoint)
			continue
		}
		kept = append(kept, o)
		srcs = append(srcs, src)
	}
	e, err := New(kept, srcs, nil)
	if err != nil {
		log.Error("slo engine disabled", "err", err)
		return nil
	}
	e.Tick()
	return e
}

// Tick samples every source at the engine clock's current instant and
// prunes history older than each objective's budget window (keeping one
// sample beyond the boundary so window deltas stay anchored).
func (e *Engine) Tick() {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	for _, tr := range e.objs {
		good, total := tr.src()
		tr.samples = append(tr.samples, sample{at: now, good: good, total: total})
		cutoff := now.Add(-tr.obj.Window)
		// Find the newest sample at or before the cutoff; drop everything
		// older than it.
		drop := 0
		for i := len(tr.samples) - 2; i >= 0; i-- {
			if !tr.samples[i].at.After(cutoff) {
				drop = i
				break
			}
		}
		if drop > 0 {
			tr.samples = append(tr.samples[:0], tr.samples[drop:]...)
		}
	}
}

// delta returns the (good, total) increments observed over the trailing
// window w: newest sample minus the newest sample at or before the
// window start (or the oldest sample if history is shorter than w).
func (tr *tracked) delta(now time.Time, w time.Duration) (good, total int64) {
	n := len(tr.samples)
	if n < 2 {
		return 0, 0
	}
	latest := tr.samples[n-1]
	cutoff := now.Add(-w)
	base := tr.samples[0]
	for i := n - 2; i >= 1; i-- {
		if !tr.samples[i].at.After(cutoff) {
			base = tr.samples[i]
			break
		}
	}
	good = latest.good - base.good
	total = latest.total - base.total
	if good < 0 || total < 0 { // counter reset upstream; treat as empty
		return 0, 0
	}
	return good, total
}

// burn converts a window's (good, total) into a burn rate against the
// objective's error budget. No traffic burns nothing.
func (o *Objective) burn(good, total int64) float64 {
	if total <= 0 {
		return 0
	}
	bad := float64(total-good) / float64(total)
	return bad / (1 - o.Target)
}

// Status is one objective's current evaluation — the /debug/slo
// document entry and the source of the Prometheus SLO gauges.
type Status struct {
	Name        string  `json:"name"`
	Kind        Kind    `json:"kind"`
	Endpoint    string  `json:"endpoint"`
	Target      float64 `json:"target"`
	ThresholdMS float64 `json:"threshold_ms,omitempty"`

	WindowSecs     float64 `json:"window_seconds"`
	FastWindowSecs float64 `json:"fast_window_seconds"`
	SlowWindowSecs float64 `json:"slow_window_seconds"`
	BurnThreshold  float64 `json:"burn_threshold"`

	// Over the budget window:
	Good            int64   `json:"good"`
	Total           int64   `json:"total"`
	Compliance      float64 `json:"compliance"` // good/total; 1 with no traffic
	Compliant       bool    `json:"compliant"`
	BudgetRemaining float64 `json:"error_budget_remaining"` // 1 = untouched, <0 = blown

	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	Alerting bool    `json:"alerting"`
}

// Status evaluates every objective at the engine clock's current
// instant, in engine order.
func (e *Engine) Status() []Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	out := make([]Status, 0, len(e.objs))
	for _, tr := range e.objs {
		o := &tr.obj
		st := Status{
			Name:           o.Name,
			Kind:           o.Kind,
			Endpoint:       o.Endpoint,
			Target:         o.Target,
			WindowSecs:     o.Window.Seconds(),
			FastWindowSecs: o.FastWindow.Seconds(),
			SlowWindowSecs: o.SlowWindow.Seconds(),
			BurnThreshold:  o.BurnThreshold,
		}
		if o.Kind == Latency {
			st.ThresholdMS = float64(o.ThresholdNS) / 1e6
		}
		good, total := tr.delta(now, o.Window)
		st.Good, st.Total = good, total
		st.Compliance = 1
		if total > 0 {
			st.Compliance = float64(good) / float64(total)
		}
		st.Compliant = st.Compliance >= o.Target
		st.BudgetRemaining = 1 - o.burn(good, total)
		fg, ft := tr.delta(now, o.FastWindow)
		sg, stt := tr.delta(now, o.SlowWindow)
		st.FastBurn = o.burn(fg, ft)
		st.SlowBurn = o.burn(sg, stt)
		st.Alerting = ft > 0 &&
			st.FastBurn >= o.BurnThreshold && st.SlowBurn >= o.BurnThreshold
		// Guard against pathological float inputs ever reaching JSON.
		for _, v := range []*float64{&st.Compliance, &st.BudgetRemaining, &st.FastBurn, &st.SlowBurn} {
			if math.IsNaN(*v) || math.IsInf(*v, 0) {
				*v = 0
			}
		}
		out = append(out, st)
	}
	return out
}

// Statuses samples every objective and evaluates it, worst first — what
// every read of a daemon's SLOs serves. Nil on a nil engine (SLOs
// disabled).
func (e *Engine) Statuses() []Status {
	if e == nil {
		return nil
	}
	e.Tick()
	sts := e.Status()
	sortStatuses(sts)
	return sts
}

// Snapshot is the /debug/slo document.
type Snapshot struct {
	Alerting   int      `json:"alerting"` // objectives currently burning past threshold
	Objectives []Status `json:"objectives"`
}

// Handler serves GET /debug/slo: every objective's compliance, error
// budget and burn-rate alert state, or 404 when e is nil.
func Handler(e *Engine, log *slog.Logger) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if e == nil {
			telemetry.WriteError(w, http.StatusNotFound, "slo engine disabled")
			return
		}
		doc := Snapshot{Objectives: e.Statuses()}
		for _, st := range doc.Objectives {
			if st.Alerting {
				doc.Alerting++
			}
		}
		telemetry.WriteJSON(w, http.StatusOK, doc, log)
	}
}

// DefaultSpec is the objective set both daemons run with when -slo is
// not given: p-latency and availability on the render endpoint.
const DefaultSpec = "latency@/render:le=500ms:target=99%;availability@/render:target=99.9%"

// FlagVar declares -slo on fs with default DefaultSpec, which it leaves
// as a nil *objs for Build to resolve. A spec given explicitly binds a
// non-nil list, so -slo "" is an empty list: no engine.
func FlagVar(fs *flag.FlagSet, objs *[]Objective, usage string) {
	fs.Func("slo", usage, func(spec string) error {
		o, err := Parse(spec)
		if err != nil {
			return err
		}
		if o == nil {
			o = []Objective{}
		}
		*objs = o
		return nil
	})
	fs.Lookup("slo").DefValue = DefaultSpec
}

// Parse reads a spec string into objectives. The grammar, in the style
// of the fault-injection specs:
//
//	spec      = rule *( ";" rule )
//	rule      = kind "@" endpoint *( ":" param "=" value )
//	kind      = "latency" | "availability"
//	params    = "le" (duration, latency only) | "target" ("99.9%" or "0.999")
//	          | "window" | "fast" | "slow" (durations) | "burn" (float)
//	          | "name" (identifier)
//
// Example: "latency@/render:le=250ms:target=99%:window=1h:burn=4".
func Parse(spec string) ([]Objective, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []Objective
	for _, rule := range strings.Split(spec, ";") {
		rule = strings.TrimSpace(rule)
		if rule == "" {
			continue
		}
		fields := strings.Split(rule, ":")
		head := fields[0]
		kind, endpoint, ok := strings.Cut(head, "@")
		if !ok {
			return nil, fmt.Errorf("slo: rule %q: want kind@endpoint", rule)
		}
		o := Objective{Kind: Kind(kind), Endpoint: endpoint}
		for _, f := range fields[1:] {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				return nil, fmt.Errorf("slo: rule %q: bad param %q (want key=value)", rule, f)
			}
			switch k {
			case "le":
				d, err := time.ParseDuration(v)
				if err != nil || d <= 0 {
					return nil, fmt.Errorf("slo: rule %q: bad le %q", rule, v)
				}
				o.ThresholdNS = int64(d)
			case "target":
				t, err := parseTarget(v)
				if err != nil {
					return nil, fmt.Errorf("slo: rule %q: %v", rule, err)
				}
				o.Target = t
			case "window", "fast", "slow":
				d, err := time.ParseDuration(v)
				if err != nil || d <= 0 {
					return nil, fmt.Errorf("slo: rule %q: bad %s %q", rule, k, v)
				}
				switch k {
				case "window":
					o.Window = d
				case "fast":
					o.FastWindow = d
				case "slow":
					o.SlowWindow = d
				}
			case "burn":
				b, err := strconv.ParseFloat(v, 64)
				if err != nil || b <= 0 {
					return nil, fmt.Errorf("slo: rule %q: bad burn %q", rule, v)
				}
				o.BurnThreshold = b
			case "name":
				o.Name = v
			default:
				return nil, fmt.Errorf("slo: rule %q: unknown param %q", rule, k)
			}
		}
		if err := o.normalize(); err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

// parseTarget accepts "99.9%" or a bare fraction "0.999".
func parseTarget(v string) (float64, error) {
	pct := strings.HasSuffix(v, "%")
	f, err := strconv.ParseFloat(strings.TrimSuffix(v, "%"), 64)
	if err != nil {
		return 0, fmt.Errorf("bad target %q", v)
	}
	if pct {
		f /= 100
	}
	if !(f > 0 && f < 1) {
		return 0, fmt.Errorf("target %q outside (0,1)", v)
	}
	return f, nil
}

// sortStatuses orders statuses for display: alerting first, then by
// worst budget, then by name — what an operator should look at first.
func sortStatuses(sts []Status) {
	sort.SliceStable(sts, func(i, j int) bool {
		if sts[i].Alerting != sts[j].Alerting {
			return sts[i].Alerting
		}
		if sts[i].BudgetRemaining != sts[j].BudgetRemaining {
			return sts[i].BudgetRemaining < sts[j].BudgetRemaining
		}
		return sts[i].Name < sts[j].Name
	})
}
