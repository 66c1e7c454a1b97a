// Package loadgen replays synthetic multi-tenant render traffic against
// a running shearwarpd — the closed loop's stimulus half, with the SLO
// engine and dashboard as the observation half.
//
// The generator is open-loop: requests are dispatched on a fixed
// schedule derived from the target rate, regardless of how fast the
// service answers, so an overloaded service sees the backlog a real
// client population would produce instead of the self-throttling a
// closed loop applies. Bounded in-flight concurrency keeps the client
// itself healthy; arrivals that would exceed it are counted as shed
// rather than silently delayed (shed arrivals mean the client, not the
// service, became the bottleneck — rerun with more concurrency).
//
// Traffic shape:
//
//   - tenants (volumes) are drawn from a Zipf distribution over the
//     configured catalogue, modeling the popularity skew real volume
//     stores exhibit (a few hot studies, a long cold tail);
//   - viewpoints follow a golden-angle camera path, so successive
//     requests for one volume render genuinely different frames while
//     the whole sphere of viewpoints is covered evenly;
//   - the catalogue is auto-discovered from /healthz (volume_names)
//     when not configured explicitly.
//
// The Report digests the run client-side — achieved rate, per-status
// counts, latency quantiles — and joins it with the service's own
// cache counters scraped from /metrics before and after, so a run
// shows both what clients experienced and what it cost the cache.
package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shearwarp/internal/telemetry"
	"shearwarp/internal/volcache"
)

// Config tunes one load run. A target (BaseURL or Targets) and RPS are
// required; everything else gets the shipped defaults from normalize, and
// RegisterFlags binds loadgen's flags to the same ones.
type Config struct {
	BaseURL string // service root, e.g. "localhost:8080" paths are appended to
	// Targets is the multi-endpoint form of BaseURL: arrivals round-robin
	// across these roots, so one run can drive several shearwarpd
	// replicas (or several gateways) at once. When both are set, BaseURL
	// is prepended; discovery and cache scraping use the first target.
	Targets []string
	RPS     float64 // target arrival rate (open loop)
	// Duration bounds the dispatch schedule (default 15s). In-flight
	// requests are drained (briefly) after the last arrival.
	Duration time.Duration
	// Concurrency caps in-flight requests (default 4*RPS rounded up,
	// minimum 8). Arrivals past the cap are shed client-side.
	Concurrency int
	// Skew is the Zipf s parameter over the volume catalogue (default
	// 1.2; must be > 1). Higher skews concentrate traffic harder on the
	// first volumes.
	Skew float64
	// Volumes is the popularity-ranked catalogue. Empty = discover from
	// /healthz volume_names.
	Volumes   []string
	Algorithm string // forwarded as ?alg when non-empty
	Format    string // forwarded as ?format (default ppm)
	Seed      int64  // deterministic tenant/viewpoint sequence (default 1)
	// RetryAfterCap bounds how long a shed response's Retry-After hint
	// is honored: a 503/429 carrying the header gets one client-side
	// retry after min(hint, cap) (default 2s; negative disables
	// honoring, so shed responses count as-is).
	RetryAfterCap time.Duration
	Client        *http.Client
}

// defaults is the shipped configuration, stated once: normalize fills
// zero fields from it and RegisterFlags shows it as the flag defaults.
// Concurrency is absent because it derives from RPS.
var defaults = Config{
	Duration:      15 * time.Second,
	Skew:          1.2,
	Format:        "ppm",
	Seed:          1,
	RetryAfterCap: 2 * time.Second,
}

func (c *Config) normalize() error {
	targets := make([]string, 0, len(c.Targets)+1)
	for _, t := range append([]string{c.BaseURL}, c.Targets...) {
		if t != "" {
			targets = append(targets, strings.TrimRight(t, "/"))
		}
	}
	if c.Targets = targets; len(c.Targets) == 0 {
		return errors.New("loadgen: at least one target required")
	}
	c.BaseURL = c.Targets[0]
	if c.RetryAfterCap == 0 {
		c.RetryAfterCap = defaults.RetryAfterCap
	}
	if !(c.RPS > 0) {
		return errors.New("loadgen: RPS must be positive")
	}
	if c.Duration <= 0 {
		c.Duration = defaults.Duration
	}
	if c.Concurrency <= 0 {
		c.Concurrency = max(8, int(math.Ceil(c.RPS*4)))
	}
	if c.Skew == 0 {
		c.Skew = defaults.Skew
	}
	if !(c.Skew > 1) {
		return fmt.Errorf("loadgen: Zipf skew %v must be > 1", c.Skew)
	}
	if c.Format == "" {
		c.Format = defaults.Format
	}
	if c.Seed == 0 {
		c.Seed = defaults.Seed
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 60 * time.Second}
	}
	return nil
}

// RegisterFlags declares loadgen's run flags on fs, each bound straight
// into c with its default read from defaults. -concurrency defaults to 0
// so it keeps following -rps. -rps has a flag default but no library
// one: a Config must state its rate.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.BaseURL, "url", "", "shearwarpd base URL (default http://localhost:8080 when no -target given)")
	fs.Func("target", "service base URL; repeat (or comma-separate) to round-robin arrivals across replicas/gateways", func(s string) error {
		c.Targets = append(c.Targets, splitList(s)...)
		return nil
	})
	fs.DurationVar(&c.RetryAfterCap, "retry-after-cap", defaults.RetryAfterCap, "longest honored Retry-After backoff on shed responses (negative = ignore hints)")
	fs.Float64Var(&c.RPS, "rps", 10, "target request rate (open loop)")
	fs.DurationVar(&c.Duration, "duration", defaults.Duration, "how long to dispatch requests")
	fs.IntVar(&c.Concurrency, "concurrency", 0, "max in-flight requests (0 = 4*rps, min 8)")
	fs.Float64Var(&c.Skew, "skew", defaults.Skew, "Zipf skew over the volume catalogue (> 1)")
	fs.Func("volumes", "comma-separated popularity-ranked volumes (empty = discover from /healthz)", func(s string) error {
		c.Volumes = splitList(s)
		return nil
	})
	fs.StringVar(&c.Algorithm, "alg", "", "render algorithm to request (empty = service default)")
	fs.StringVar(&c.Format, "format", defaults.Format, "frame format to request")
	fs.Int64Var(&c.Seed, "seed", defaults.Seed, "RNG seed for the tenant/viewpoint sequence")
}

// splitList splits a comma-separated flag value, dropping blank items.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// CacheDelta is the service-side cache traffic attributable to the run:
// the /metrics cache counters after minus before.
type CacheDelta struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Builds    int64 `json:"builds"`
	Evictions int64 `json:"evictions"`
	BytesNow  int64 `json:"bytes_now"` // absolute, after the run
}

// Report is one run's digest — written by cmd/loadgen as
// BENCH_load.json.
type Report struct {
	TargetRPS    float64 `json:"target_rps"`
	AchievedRPS  float64 `json:"achieved_rps"` // completed requests / elapsed
	DurationSecs float64 `json:"duration_seconds"`
	Concurrency  int     `json:"concurrency"`
	Skew         float64 `json:"zipf_skew"`

	Requests        int64            `json:"requests"` // completed (any status)
	Shed            int64            `json:"shed"`     // arrivals dropped at the client's concurrency cap
	TransportErrors int64            `json:"transport_errors"`
	ServerErrors    int64            `json:"server_errors"` // 5xx responses (after any honored retry)
	StatusCounts    map[string]int64 `json:"status_counts"`
	PerVolume       map[string]int64 `json:"per_volume"`
	PerTarget       map[string]int64 `json:"per_target,omitempty"` // arrivals per target root (multi-target runs)

	// Retry-After accounting: how often the service asked clients to
	// back off, how often the client honored it (slept and retried
	// once), how long those sleeps totalled, and how many honored
	// retries turned the shed response into a success.
	RetryAfterSeen     int64   `json:"retry_after_seen"`
	RetryAfterHonored  int64   `json:"retry_after_honored"`
	RetryAfterWaitSecs float64 `json:"retry_after_wait_seconds"`
	RetrySuccesses     int64   `json:"retry_successes"`

	Latency    telemetry.QuantileSummary `json:"latency"` // client-observed, ms
	CacheDelta CacheDelta                `json:"cache_delta"`

	// SlowRequests are the run's slowest completed requests, worst first,
	// each carrying the fleet trace ID the service echoed in
	// X-Shearwarp-Trace — the direct path from "the tail was bad" to the
	// stitched /debug/trace view of exactly the requests that made it bad.
	SlowRequests []SlowRequest `json:"slow_requests,omitempty"`
}

// SlowRequest is one tail sample in the report.
type SlowRequest struct {
	DurMS    float64 `json:"dur_ms"`
	Status   int     `json:"status"`
	URL      string  `json:"url"`
	TraceID  string  `json:"trace_id,omitempty"`
	TraceURL string  `json:"trace_url,omitempty"` // stitched view on the target that served it
}

// traceHeader is the fleet trace-context response header
// (server.TraceHeader; spelled out to keep loadgen service-agnostic).
const traceHeader = "X-Shearwarp-Trace"

// slowKeep bounds the retained tail samples.
const slowKeep = 8

// runState is the mutable accounting shared by request goroutines.
type runState struct {
	hist         *telemetry.Histogram
	retryCap     time.Duration
	transport    atomic.Int64
	srvErrs      atomic.Int64
	retrySeen    atomic.Int64
	retryHonored atomic.Int64
	retryWaitNS  atomic.Int64
	retrySuccess atomic.Int64

	mu       sync.Mutex
	statuses map[int]int64
	volumes  map[string]int64
	targets  map[string]int64
	slow     []SlowRequest // worst-first, capped at slowKeep
}

// noteSlow offers one completed request to the tail list (caller holds
// no lock). Kept sorted worst-first and capped, so the insert is O(n)
// over a tiny n.
func (st *runState) noteSlow(s SlowRequest) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.slow) == slowKeep && s.DurMS <= st.slow[slowKeep-1].DurMS {
		return
	}
	st.slow = append(st.slow, s)
	sort.Slice(st.slow, func(i, j int) bool { return st.slow[i].DurMS > st.slow[j].DurMS })
	if len(st.slow) > slowKeep {
		st.slow = st.slow[:slowKeep]
	}
}

// Run executes one load run and returns its report. The context cancels
// the run early (the report covers what ran).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	vols := cfg.Volumes
	if len(vols) == 0 {
		var err error
		if vols, err = DiscoverVolumes(ctx, cfg.Client, cfg.BaseURL); err != nil {
			return nil, err
		}
	}
	if len(vols) == 0 {
		return nil, errors.New("loadgen: no volumes to request")
	}

	before, err := ScrapeCache(ctx, cfg.Client, cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("loadgen: scraping /metrics before run: %w", err)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.Skew, 1, uint64(len(vols)-1))
	if len(vols) == 1 {
		zipf = nil // rand.NewZipf rejects imax 0; the draw is constant anyway
	}

	st := &runState{
		hist:     telemetry.NewHistogram(),
		retryCap: cfg.RetryAfterCap,
		statuses: make(map[int]int64),
		volumes:  make(map[string]int64),
		targets:  make(map[string]int64),
	}
	slots := make(chan struct{}, cfg.Concurrency)
	var wg sync.WaitGroup
	var shed int64

	interval := time.Duration(float64(time.Second) / cfg.RPS)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.NewTimer(cfg.Duration)
	defer deadline.Stop()

	start := time.Now()
	seq := 0
dispatch:
	for {
		select {
		case <-ctx.Done():
			break dispatch
		case <-deadline.C:
			break dispatch
		case <-ticker.C:
			var vi uint64
			if zipf != nil {
				vi = zipf.Uint64()
			}
			volume := vols[vi]
			target := cfg.Targets[seq%len(cfg.Targets)]
			url := requestURL(cfg, target, volume, seq)
			seq++
			select {
			case slots <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-slots }()
					st.do(ctx, cfg.Client, url, volume, target)
				}()
			default:
				shed++
			}
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, err := ScrapeCache(ctx, cfg.Client, cfg.BaseURL)
	if err != nil {
		// The run itself succeeded; report it with an empty delta rather
		// than failing (the service may have just been shut down).
		after = before
	}

	snap := st.hist.Snapshot()
	rep := &Report{
		TargetRPS:       cfg.RPS,
		DurationSecs:    elapsed.Seconds(),
		Concurrency:     cfg.Concurrency,
		Skew:            cfg.Skew,
		Requests:        snap.Count,
		Shed:            shed,
		TransportErrors: st.transport.Load(),
		ServerErrors:    st.srvErrs.Load(),
		StatusCounts:    make(map[string]int64, len(st.statuses)),
		PerVolume:       st.volumes,
		Latency:         snap.Summary(),

		RetryAfterSeen:     st.retrySeen.Load(),
		RetryAfterHonored:  st.retryHonored.Load(),
		RetryAfterWaitSecs: float64(st.retryWaitNS.Load()) / 1e9,
		RetrySuccesses:     st.retrySuccess.Load(),
		CacheDelta: CacheDelta{
			Hits:      after.Hits - before.Hits,
			Misses:    after.Misses - before.Misses,
			Builds:    after.Builds - before.Builds,
			Evictions: after.Evictions - before.Evictions,
			BytesNow:  after.Bytes,
		},
	}
	if elapsed > 0 {
		rep.AchievedRPS = float64(snap.Count) / elapsed.Seconds()
	}
	for code, n := range st.statuses {
		rep.StatusCounts[strconv.Itoa(code)] = n
	}
	if len(cfg.Targets) > 1 {
		rep.PerTarget = st.targets
	}
	st.mu.Lock()
	rep.SlowRequests = append([]SlowRequest(nil), st.slow...)
	st.mu.Unlock()
	return rep, nil
}

// requestURL builds the seq-th request for a volume: a golden-angle
// camera path, so successive frames differ and viewpoints cover the
// sphere evenly.
func requestURL(cfg Config, target, volume string, seq int) string {
	const golden = 137.50776405003785 // degrees
	yaw := math.Mod(float64(seq)*golden, 360)
	pitch := 60 * math.Sin(float64(seq)*0.37)
	url := fmt.Sprintf("%s/render?volume=%s&yaw=%.2f&pitch=%.2f&format=%s",
		target, volume, yaw, pitch, cfg.Format)
	if cfg.Algorithm != "" {
		url += "&alg=" + cfg.Algorithm
	}
	return url
}

// do issues one request and accounts for it. A shed response (503/429)
// carrying a Retry-After hint gets one polite retry: sleep min(hint,
// cap), reissue, and account for the final outcome — so a well-behaved
// client population's experience of a shedding fleet is what lands in
// the report, not the first-touch rejections.
func (st *runState) do(ctx context.Context, client *http.Client, url, volume, target string) {
	t0 := time.Now()
	status, retryAfter, traceID, ok := st.issue(ctx, client, url)
	if ok && retryAfter > 0 {
		st.retrySeen.Add(1)
		if st.retryCap > 0 {
			wait := retryAfter
			if wait > st.retryCap {
				wait = st.retryCap
			}
			select {
			case <-ctx.Done():
			case <-time.After(wait):
				st.retryHonored.Add(1)
				st.retryWaitNS.Add(int64(wait))
				first := status
				status, _, traceID, ok = st.issue(ctx, client, url)
				if ok && status < 400 && first >= 400 {
					st.retrySuccess.Add(1)
				}
			}
		}
	}
	if !ok {
		st.transport.Add(1)
		return
	}
	dur := time.Since(t0)
	st.hist.Observe(dur)
	slow := SlowRequest{DurMS: float64(dur) / 1e6, Status: status, URL: url, TraceID: traceID}
	if traceID != "" {
		slow.TraceURL = target + "/debug/trace?id=" + traceID
	}
	st.noteSlow(slow)
	if status >= 500 {
		st.srvErrs.Add(1)
	}
	st.mu.Lock()
	st.statuses[status]++
	st.volumes[volume]++
	st.targets[target]++
	st.mu.Unlock()
}

// issue performs one HTTP exchange; retryAfter is non-zero when the
// response was a shed (503/429) carrying a parseable Retry-After hint,
// and traceID is the fleet trace context the service echoed (empty when
// the service predates tracing).
func (st *runState) issue(ctx context.Context, client *http.Client, url string) (status int, retryAfter time.Duration, traceID string, ok bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, 0, "", false
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, "", false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests {
		if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	return resp.StatusCode, retryAfter, resp.Header.Get(traceHeader), true
}

// DiscoverVolumes reads the service's volume catalogue from /healthz.
func DiscoverVolumes(ctx context.Context, client *http.Client, baseURL string) ([]string, error) {
	var doc struct {
		VolumeNames []string `json:"volume_names"`
	}
	if err := getJSON(ctx, client, baseURL+"/healthz", &doc); err != nil {
		return nil, fmt.Errorf("loadgen: discovering volumes: %w", err)
	}
	sort.Strings(doc.VolumeNames)
	return doc.VolumeNames, nil
}

// ScrapeCache reads the service's cache counters from the JSON
// /metrics document.
func ScrapeCache(ctx context.Context, client *http.Client, baseURL string) (volcache.Stats, error) {
	var doc struct {
		Cache volcache.Stats `json:"cache"`
	}
	err := getJSON(ctx, client, baseURL+"/metrics", &doc)
	return doc.Cache, err
}

func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
