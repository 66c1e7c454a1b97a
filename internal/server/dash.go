package server

import "shearwarp/internal/telemetry"

// dashHandler serves GET /debug/dash: the shared self-contained dashboard
// shell (telemetry.Dashboard) around the service's panels, refreshed from
// its own /metrics, /debug/slo and /debug/latency.
var dashHandler = telemetry.Dashboard("shearwarpd", `  <span>uptime <b id="uptime">&ndash;</b></span>
  <span>build <b id="build">&ndash;</b></span>
  <span>frames <b id="frames">&ndash;</b></span>
  <span>rendering <b id="rendering">&ndash;</b> / queued <b id="queued">&ndash;</b></span>
`, `  <section><h2>Service objectives</h2><div class="cards" id="slo"></div></section>
  <section><h2>Endpoints</h2><table id="eps"></table></section>
  <section><h2>Cache tenants</h2><table id="tenants"></table></section>
  <section><h2>Render phases (cumulative worker time)</h2><div id="phases"></div></section>
  <section><h2>Slow-request exemplars</h2><table id="exemplars"></table></section>
`, `function fmtMS(v) { return v.toFixed(2) + "ms"; }
function fmtBytes(b) {
  if (b >= 1 << 20) return (b / (1 << 20)).toFixed(1) + "MiB";
  if (b >= 1 << 10) return (b / (1 << 10)).toFixed(1) + "KiB";
  return b + "B";
}
function budgetBar(remaining) {
  var pct = Math.max(0, Math.min(1, remaining)) * 100;
  var cls = remaining <= 0 ? "blown" : remaining < 0.25 ? "low" : "";
  return '<div class="bar"><i class="' + cls + '" style="width:' + pct.toFixed(1) + '%"></i></div>';
}
function renderSLO(doc) {
  var el = document.getElementById("slo");
  if (!doc || !doc.objectives || !doc.objectives.length) {
    el.innerHTML = "<span>no objectives configured</span>";
    return;
  }
  el.innerHTML = doc.objectives.map(function (o) {
    return '<div class="card' + (o.alerting ? " alert" : "") + '">' +
      '<div class="name">' + esc(o.name) + (o.alerting ? " &#9888; ALERT" : "") + "</div>" +
      "<div>compliance " + (o.compliance * 100).toFixed(3) + "% (target " +
      (o.target * 100) + "%, " + o.good + "/" + o.total + ")</div>" +
      budgetBar(o.error_budget_remaining) +
      "<div>budget " + (o.error_budget_remaining * 100).toFixed(1) +
      "% &middot; burn fast " + o.fast_burn.toFixed(2) +
      " / slow " + o.slow_burn.toFixed(2) +
      " (&ge;" + o.burn_threshold + " alerts)</div></div>";
  }).join("");
}
function renderPhases(m) {
  var ph = m.phases && m.phases.phase_ns ? m.phases.phase_ns : {};
  var names = Object.keys(ph).sort();
  var total = 0;
  names.forEach(function (n) { total += ph[n]; });
  document.getElementById("phases").innerHTML = names.map(function (n) {
    var pct = total ? 100 * ph[n] / total : 0;
    return '<div class="phase"><span class="lbl">' + esc(n) + "</span>" +
      '<div class="bar"><i style="width:' + pct.toFixed(1) + '%"></i></div>' +
      '<span class="val">' + (ph[n] / 1e6).toFixed(1) + "ms</span></div>";
  }).join("");
}
function refresh() {
  return Promise.all([getJSON("/metrics"), getJSON("/debug/slo"), getJSON("/debug/latency")]).then(function (res) {
    var m = res[0], lat = res[2] || {};
    setText("uptime", fmtDur(m.uptime_seconds));
    setText("build", m.build.go_version + " · " + m.build.gomaxprocs + "p · " + m.build.goroutines + "g");
    setText("frames", m.frames);
    setText("rendering", m.rendering);
    setText("queued", m.queued);
    renderSLO(res[1]);
    table("eps", ["path", "requests", "errors", "5xx", "in-flight", "mean", "p99"],
      Object.keys(m.endpoints).sort().map(function (p) {
        var e = m.endpoints[p], q = lat.endpoints && lat.endpoints[p];
        return [p, e.requests, e.errors, e.server_errors, e.in_flight, fmtMS(e.mean_ms), q ? fmtMS(q.p99_ms) : "-"];
      }));
    table("tenants", ["tenant", "hits", "misses", "hit rate", "builds", "build time", "evictions", "bytes"],
      (m.cache_tenants || []).map(function (t) {
        var lookups = t.hits + t.misses;
        return [t.name || t.volume, t.hits, t.misses, lookups ? (100 * t.hits / lookups).toFixed(1) + "%" : "-",
          t.builds, (t.build_ns / 1e6).toFixed(1) + "ms", t.evictions, fmtBytes(t.bytes)];
      }));
    renderPhases(m);
    table("exemplars", ["latency", "request", "trace"], (lat.render_exemplars || []).map(function (x) {
      return [fmtMS(x.value_ms), "#" + x.req_id, x.trace_url ? { v: "spans", href: x.trace_url } : "aged out"];
    }));
  });
}
every(2000, refresh);
`)
