package gateway

import "shearwarp/internal/telemetry"

// dashHandler serves GET /debug/dash: the shared self-contained dashboard
// shell (telemetry.Dashboard) around the fleet panels, refreshed from the
// gateway's own /metrics. The backend panel is the point: per-backend
// health, breaker state, in-flight load, and the retry/hedge traffic each
// one is absorbing.
var dashHandler = telemetry.Dashboard("shearwarpgw", `  <span>uptime <b id="uptime">&ndash;</b></span>
  <span>requests <b id="requests">&ndash;</b></span>
  <span>success <b id="successes">&ndash;</b></span>
  <span>retries <b id="retries">&ndash;</b></span>
  <span>hedges <b id="hedges">&ndash;</b> (wins <b id="hedgewins">&ndash;</b>)</span>
  <span>hedge delay <b id="hedgedelay">&ndash;</b></span>
`, `  <section><h2>Backends</h2><table id="backends"></table></section>
  <section><h2>Latency (proxied renders)</h2><table id="latency"></table></section>
  <section><h2>Fleet (merged backend metrics) <span id="fleetage"></span></h2><table id="fleet"></table></section>
  <section><h2>Recent traces</h2><table id="traces"></table></section>
`, `function ms(v) { return v >= 1000 ? (v / 1000).toFixed(2) + "s" : v.toFixed(1) + "ms"; }
function pct(f) { return ((f || 0) * 100).toFixed(1) + "%"; }
function lat(name, q) {
  return [name, q.count, ms(q.mean_ms), ms(q.p50_ms), ms(q.p90_ms), ms(q.p99_ms), ms(q.max_ms)];
}
function refresh() {
  return getJSON("/metrics").then(function (m) {
    setText("uptime", fmtDur(m.uptime_seconds));
    setText("requests", m.requests);
    setText("successes", m.successes);
    setText("retries", m.retries);
    setText("hedges", m.hedges);
    setText("hedgewins", m.hedge_wins);
    setText("hedgedelay", ms(m.hedge_delay_ms));
    table("backends", ["backend", "health", "breaker", "opens", "in-flight", "requests", "failures", "retries", "hedges", "hedge wins"],
      (m.backends || []).map(function (b) {
        return [b.url, { v: b.healthy ? "up" : "down", cls: b.healthy ? "ok" : "bad" },
          { v: b.breaker, cls: b.breaker === "closed" ? "ok" : b.breaker === "open" ? "bad" : "warn" },
          b.breaker_opens, b.in_flight, b.requests, b.failures, b.retries, b.hedges, b.hedge_wins];
      }));
    table("latency", ["series", "count", "mean", "p50", "p90", "p99", "max"],
      [lat("render (e2e)", m.render), lat("attempt", m.attempt)]);
    var f = m.fleet || {}, rows = [];
    if (f.scraped_ago_seconds >= 0) {
      setText("fleetage", "(scraped " + f.scraped_ago_seconds.toFixed(1) + "s ago, " + f.scraped + "/" + f.backends + " up)");
      rows.push([{ v: "fleet", cls: "sum" }, f.frames, f.render.count, ms(f.render.p50_ms), ms(f.render.p99_ms), "-", pct(f.cache_hit_rate)]);
      (f.per_backend || []).forEach(function (b) {
        var skew = b.p99_skew_vs_fleet || 0;
        rows.push(b.err ? [b.url, { v: b.err, cls: "bad", span: 6 }] : [b.url, b.frames, b.render_count,
          ms(b.render_p50_ms), ms(b.render_p99_ms),
          { v: skew.toFixed(2) + "x", cls: skew > 1.5 ? "bad" : skew > 1.1 ? "warn" : "" }, pct(b.cache_hit_rate)]);
      });
    } else {
      setText("fleetage", "(no scrape yet)");
    }
    table("fleet", ["backend", "frames", "renders", "p50", "p99", "p99 skew", "cache hit"], rows);
    table("traces", ["trace", "status", "duration", "attempts", "label"], (m.recent_traces || []).map(function (t) {
      return [{ v: t.id, href: t.trace_url }, { v: t.status, cls: t.status >= 200 && t.status < 300 ? "ok" : "bad" },
        ms(t.dur_ms), t.attempts, t.label];
    }));
  });
}
every(1000, refresh);
`)
