// Package faultinject is the deterministic fault-injection layer of the
// render stack. Like trace.Tracer and telemetry.FrameSpans, an injector is an
// optional pointer threaded through the renderers: every instrumented
// site nil-checks it, so the disabled path costs one predictable branch
// and zero allocations, and the production kernels stay byte-identical.
//
// Faults are addressed, not random: a Rule names a site ("composite",
// "warp", "cachebuild", ...), optionally a worker and a band, and the Nth
// matching visit at which it fires — so a chaos test can demand "panic in
// worker 2's third stolen chunk" and get exactly that, every run. Rules
// fire once. Seed-derived schedules for soak testing come from FromSeed,
// which maps the same seed to the same schedule forever.
//
// Seven fault kinds cover the failure modes the render service and the
// gateway in front of it harden against:
//
//   - panic: a worker or setup panic, exercising recover/FrameError paths;
//   - delay: a stuck worker, exercising watchdog and imbalance paths;
//   - cancel: invokes the injector's cancel hook (a context cancel in
//     tests), exercising cooperative cancellation at an exact step;
//   - error: surfaced through Error at sites that report failures as
//     values (cache builds), exercising single-flight failure handling;
//   - kill: a transport round trip fails with a connection error before
//     any response bytes, exercising connect-failure retry paths;
//   - truncate: a transport response body is cut mid-stream with an
//     unexpected EOF, exercising mid-stream backend-death handling;
//   - status: a transport response is replaced by a synthesized error
//     status (503 by default), exercising shed/5xx-burst handling.
//
// The transport kinds are evaluated by the Transport RoundTripper (see
// transport.go); rules can fire on a burst of consecutive visits via the
// Count field (`c=` in the grammar), the 5xx-burst shape.
package faultinject

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Kind is the fault a rule injects.
type Kind uint8

// Fault kinds.
const (
	KindPanic    Kind = iota // panic at the visit
	KindDelay                // sleep Delay at the visit
	KindCancel               // invoke the injector's cancel hook
	KindError                // make Error return an *InjectedError
	KindKill                 // fail the transport round trip with a connect error
	KindTruncate             // cut the transport response body mid-stream
	KindStatus               // replace the transport response with status Code
)

func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindCancel:
		return "cancel"
	case KindError:
		return "error"
	case KindKill:
		return "kill"
	case KindTruncate:
		return "truncate"
	case KindStatus:
		return "status"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// transportKind reports whether k is evaluated by the Transport
// RoundTripper rather than the renderers' Visit/Error sites.
func transportKind(k Kind) bool {
	return k == KindKill || k == KindTruncate || k == KindStatus || k == KindDelay
}

// Rule describes one fault. Zero Worker/Band match only worker/band 0;
// use -1 for "any". Hit is the Nth matching visit that fires the rule
// (1-based; 0 means the first). A rule fires on Count consecutive
// matching visits starting at Hit (0 or 1 = once) — the burst shape for
// transport faults — so every rule fires a bounded number of times.
type Rule struct {
	Kind   Kind
	Site   string        // instrumented site name; "" matches any site
	Worker int           // worker id to match, -1 = any
	Band   int           // band to match, -1 = any
	Hit    int64         // fire on the Nth matching visit (0 or 1 = first)
	Count  int64         // consecutive matching visits that fire (0 or 1 = once)
	Delay  time.Duration // sleep for KindDelay
	Code   int           // response status for KindStatus (0 = 503)
}

func (r Rule) String() string {
	s := fmt.Sprintf("%s@%s", r.Kind, r.Site)
	if r.Worker >= 0 {
		s += fmt.Sprintf(":w=%d", r.Worker)
	}
	if r.Band >= 0 {
		s += fmt.Sprintf(":b=%d", r.Band)
	}
	if r.Hit > 1 {
		s += fmt.Sprintf(":n=%d", r.Hit)
	}
	if r.Count > 1 {
		s += fmt.Sprintf(":c=%d", r.Count)
	}
	if r.Kind == KindDelay {
		s += fmt.Sprintf(":d=%s", r.Delay)
	}
	if r.Kind == KindStatus && r.Code != 0 {
		s += fmt.Sprintf(":s=%d", r.Code)
	}
	return s
}

// rule pairs a Rule with its bounded-fire state.
type rule struct {
	Rule
	seen  atomic.Int64
	fired atomic.Bool
}

// tryFire reports whether this visit is one the rule fires on: the
// visits numbered Hit through Hit+Count-1 among those matching the
// rule's filters. Each matching visit draws a unique sequence number, so
// concurrent visitors never double-fire a slot.
func (r *rule) tryFire(site string, worker, band int) bool {
	if r.Site != "" && r.Site != site {
		return false
	}
	if r.Worker >= 0 && r.Worker != worker {
		return false
	}
	if r.Band >= 0 && r.Band != band {
		return false
	}
	want := r.Hit
	if want < 1 {
		want = 1
	}
	cnt := r.Count
	if cnt < 1 {
		cnt = 1
	}
	n := r.seen.Add(1)
	if n < want || n >= want+cnt {
		return false
	}
	r.fired.Store(true)
	return true
}

// InjectedPanic is the value injected panics carry, so recovery layers
// and tests can tell synthetic faults from real ones.
type InjectedPanic struct{ Rule Rule }

func (p *InjectedPanic) Error() string { return "faultinject: injected " + p.Rule.String() }

// InjectedError is the error returned by Error when an error rule fires.
type InjectedError struct{ Rule Rule }

func (e *InjectedError) Error() string { return "faultinject: injected " + e.Rule.String() }

// Injector evaluates a fault schedule at instrumented sites. A nil
// *Injector is valid and disables every site. All methods are safe for
// concurrent use from any number of workers.
type Injector struct {
	rules  []*rule
	cancel atomic.Value // func()
}

// New builds an injector from explicit rules.
func New(rules ...Rule) *Injector {
	in := &Injector{rules: make([]*rule, len(rules))}
	for i, r := range rules {
		in.rules[i] = &rule{Rule: r}
	}
	return in
}

// SetCancel installs the hook KindCancel rules invoke — typically a
// context.CancelFunc, so a schedule can cancel a frame at an exact step.
func (in *Injector) SetCancel(fn func()) {
	if in == nil {
		return
	}
	in.cancel.Store(fn)
}

// Visit evaluates the schedule at a site: a matching panic rule panics
// with *InjectedPanic, a delay rule sleeps, a cancel rule invokes the
// cancel hook. Error rules are ignored (see Error), and the
// transport-only kinds (kill, truncate, status) are left for the
// Transport RoundTripper. Nil injectors and non-matching visits are free.
func (in *Injector) Visit(site string, worker, band int) {
	if in == nil {
		return
	}
	for _, r := range in.rules {
		if r.Kind == KindError || r.Kind == KindKill || r.Kind == KindTruncate ||
			r.Kind == KindStatus || !r.tryFire(site, worker, band) {
			continue
		}
		switch r.Kind {
		case KindPanic:
			panic(&InjectedPanic{Rule: r.Rule})
		case KindDelay:
			time.Sleep(r.Delay)
		case KindCancel:
			if fn, _ := in.cancel.Load().(func()); fn != nil {
				fn()
			}
		}
	}
}

// Error evaluates the schedule's error rules at a site that reports
// failures as values, returning *InjectedError when one fires.
func (in *Injector) Error(site string, worker, band int) error {
	if in == nil {
		return nil
	}
	for _, r := range in.rules {
		if r.Kind == KindError && r.tryFire(site, worker, band) {
			return &InjectedError{Rule: r.Rule}
		}
	}
	return nil
}

// Fired reports whether any rule has fired — chaos tests use it to tell
// "the frame survived the fault" from "the fault never triggered".
func (in *Injector) Fired() bool {
	if in == nil {
		return false
	}
	for _, r := range in.rules {
		if r.fired.Load() {
			return true
		}
	}
	return false
}

// Rules returns a copy of the schedule, for logging failed chaos seeds.
func (in *Injector) Rules() []Rule {
	if in == nil {
		return nil
	}
	out := make([]Rule, len(in.rules))
	for i, r := range in.rules {
		out[i] = r.Rule
	}
	return out
}

// Parse builds an injector from a flag-friendly spec: rules separated by
// ";" or ",", each of the form
//
//	kind@site[:w=WORKER][:b=BAND][:n=HIT][:c=COUNT][:d=DURATION][:s=STATUS]
//
// e.g. "panic@composite:w=1:b=2" or "delay@warp:d=50ms;cancel@scanline:n=100",
// and for the transport kinds "kill@transport:n=3" or
// "status@transport:s=503:n=10:c=5" (a five-request 503 burst starting at
// the tenth round trip). An empty spec yields a nil injector (faults
// disabled).
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var rules []Rule
	for _, part := range strings.FieldsFunc(spec, func(c rune) bool { return c == ';' || c == ',' }) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := parseRule(part)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, nil
	}
	return New(rules...), nil
}

func parseRule(s string) (Rule, error) {
	r := Rule{Worker: -1, Band: -1}
	kind, rest, ok := strings.Cut(s, "@")
	if !ok {
		return r, fmt.Errorf("faultinject: rule %q missing '@site'", s)
	}
	switch kind {
	case "panic":
		r.Kind = KindPanic
	case "delay":
		r.Kind = KindDelay
		r.Delay = time.Millisecond
	case "cancel":
		r.Kind = KindCancel
	case "error":
		r.Kind = KindError
	case "kill":
		r.Kind = KindKill
	case "truncate":
		r.Kind = KindTruncate
	case "status":
		r.Kind = KindStatus
	default:
		return r, fmt.Errorf("faultinject: unknown fault kind %q in %q", kind, s)
	}
	fields := strings.Split(rest, ":")
	r.Site = fields[0]
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return r, fmt.Errorf("faultinject: bad option %q in %q", f, s)
		}
		switch k {
		case "w", "b", "n", "c":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				return r, fmt.Errorf("faultinject: bad %s=%q in %q", k, v, s)
			}
			switch k {
			case "w":
				r.Worker = int(n)
			case "b":
				r.Band = int(n)
			case "n":
				r.Hit = n
			case "c":
				r.Count = n
			}
		case "s":
			n, err := strconv.Atoi(v)
			if err != nil || n < 400 || n > 599 {
				return r, fmt.Errorf("faultinject: bad status %q in %q (want 400-599)", v, s)
			}
			r.Code = n
		case "d":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return r, fmt.Errorf("faultinject: bad duration %q in %q", v, s)
			}
			r.Delay = d
		default:
			return r, fmt.Errorf("faultinject: unknown option %q in %q", k, s)
		}
	}
	if r.Site == "" {
		return r, fmt.Errorf("faultinject: rule %q has empty site", s)
	}
	return r, nil
}

// Sites instrumented by the renderers, for seed-derived schedules.
var soakSites = []string{
	"setup", "clear", "composite", "steal", "scanline", "band-wait", "warp", "barrier",
}

// FromSeed derives a small pseudo-random fault schedule from a seed: one
// or two one-shot rules over the renderers' instrumented sites, with
// sub-millisecond delays so soak tests stay fast. The same seed always
// yields the same schedule, making chaos failures replayable by seed.
func FromSeed(seed int64, workers int) *Injector {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(2)
	rules := make([]Rule, n)
	for i := range rules {
		r := Rule{Site: soakSites[rng.Intn(len(soakSites))], Worker: -1, Band: -1}
		if workers > 0 && rng.Intn(2) == 0 {
			r.Worker = rng.Intn(workers)
		}
		r.Hit = int64(rng.Intn(64))
		switch rng.Intn(4) {
		case 0, 1:
			r.Kind = KindPanic
		case 2:
			r.Kind = KindDelay
			r.Delay = time.Duration(rng.Intn(500)) * time.Microsecond
		case 3:
			r.Kind = KindCancel
		}
		rules[i] = r
	}
	return New(rules...)
}

// FlagVar declares -fault-spec on fs. A spec with rules is announced on
// stderr, so a chaos configuration never runs unnoticed, and handed to
// bind.
func FlagVar(fs *flag.FlagSet, usage string, bind func(*Injector)) {
	fs.Func("fault-spec", usage, func(spec string) error {
		in, err := Parse(spec)
		if err != nil || in == nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: FAULT INJECTION ACTIVE: %s\n", filepath.Base(fs.Name()), spec)
		bind(in)
		return nil
	})
}
