package server

import "net/http"

// handleDash is GET /debug/dash: a single self-contained HTML ops
// dashboard. Everything — markup, styles, scripts — is inlined below
// and every data fetch is a relative path to this server's own JSON
// endpoints (/metrics, /debug/slo, /debug/latency), so the page works
// with no network access beyond the daemon itself (pinned by test: the
// document contains no absolute URLs).
func (s *Server) handleDash(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write([]byte(dashHTML))
}

const dashHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>shearwarpd ops</title>
<style>
  body { font: 13px/1.5 ui-monospace, monospace; margin: 0; background: #10141a; color: #cdd6e4; }
  header { padding: 10px 16px; background: #161c26; display: flex; gap: 24px; align-items: baseline; flex-wrap: wrap; }
  header h1 { font-size: 15px; margin: 0; color: #7fd1b9; }
  header span { color: #8b98ab; }
  header b { color: #cdd6e4; font-weight: 600; }
  main { padding: 12px 16px; display: grid; gap: 16px; max-width: 1100px; }
  section h2 { font-size: 12px; text-transform: uppercase; letter-spacing: .08em; color: #8b98ab; margin: 0 0 6px; }
  table { border-collapse: collapse; width: 100%; }
  th, td { text-align: right; padding: 2px 10px; border-bottom: 1px solid #222b38; white-space: nowrap; }
  th:first-child, td:first-child { text-align: left; }
  th { color: #8b98ab; font-weight: 500; }
  .cards { display: flex; gap: 12px; flex-wrap: wrap; }
  .card { background: #161c26; border-radius: 6px; padding: 10px 14px; min-width: 240px; }
  .card .name { color: #7fb3d1; }
  .card.alert { outline: 2px solid #d17f7f; }
  .card.alert .name { color: #d17f7f; }
  .bar { height: 8px; background: #222b38; border-radius: 4px; overflow: hidden; margin: 6px 0; }
  .bar i { display: block; height: 100%; background: #7fd1b9; }
  .bar i.low { background: #d1c97f; }
  .bar i.blown { background: #d17f7f; }
  .phase { display: flex; align-items: center; gap: 8px; }
  .phase .lbl { width: 120px; color: #8b98ab; }
  .phase .bar { flex: 1; margin: 2px 0; }
  .phase .val { width: 90px; }
  a { color: #7fb3d1; }
  #err { color: #d17f7f; }
</style>
</head>
<body>
<header>
  <h1>shearwarpd</h1>
  <span>uptime <b id="uptime">&ndash;</b></span>
  <span>build <b id="build">&ndash;</b></span>
  <span>frames <b id="frames">&ndash;</b></span>
  <span>rendering <b id="rendering">&ndash;</b> / queued <b id="queued">&ndash;</b></span>
  <span id="err"></span>
</header>
<main>
  <section><h2>Service objectives</h2><div class="cards" id="slo"></div></section>
  <section><h2>Endpoints</h2><table id="eps"></table></section>
  <section><h2>Cache tenants</h2><table id="tenants"></table></section>
  <section><h2>Render phases (cumulative worker time)</h2><div id="phases"></div></section>
  <section><h2>Slow-request exemplars</h2><table id="exemplars"></table></section>
</main>
<script>
"use strict";
function fmtDur(s) {
  if (s >= 3600) return (s / 3600).toFixed(1) + "h";
  if (s >= 60) return (s / 60).toFixed(1) + "m";
  return s.toFixed(0) + "s";
}
function fmtMS(v) { return v.toFixed(2) + "ms"; }
function fmtBytes(b) {
  if (b >= 1 << 20) return (b / (1 << 20)).toFixed(1) + "MiB";
  if (b >= 1 << 10) return (b / (1 << 10)).toFixed(1) + "KiB";
  return b + "B";
}
function esc(t) {
  return String(t).replace(/[&<>"]/g, function (c) {
    return { "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;" }[c];
  });
}
function row(cells, header) {
  var tag = header ? "th" : "td";
  return "<tr><" + tag + ">" +
    cells.map(esc).join("</" + tag + "><" + tag + ">") +
    "</" + tag + "></tr>";
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
function renderEndpoints(m, lat) {
  var paths = Object.keys(m.endpoints).sort();
  var html = row(["path", "requests", "errors", "5xx", "in-flight", "mean", "p99"], true);
  paths.forEach(function (p) {
    var e = m.endpoints[p];
    var q = lat && lat.endpoints && lat.endpoints[p];
    html += row([p, e.requests, e.errors, e.server_errors, e.in_flight,
      fmtMS(e.mean_ms), q ? fmtMS(q.p99_ms) : "-"]);
  });
  document.getElementById("eps").innerHTML = html;
}
function renderTenants(m) {
  var html = row(["tenant", "hits", "misses", "hit rate", "builds", "build time", "evictions", "bytes"], true);
  (m.cache_tenants || []).forEach(function (t) {
    var lookups = t.hits + t.misses;
    html += row([t.name || t.volume, t.hits, t.misses,
      lookups ? (100 * t.hits / lookups).toFixed(1) + "%" : "-",
      t.builds, (t.build_ns / 1e6).toFixed(1) + "ms", t.evictions, fmtBytes(t.bytes)]);
  });
  document.getElementById("tenants").innerHTML = html;
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
function renderExemplars(lat) {
  var exs = (lat && lat.render_exemplars) || [];
  var html = row(["latency", "request", "trace"], true);
  exs.forEach(function (x) {
    html += row([fmtMS(x.value_ms), "#" + x.req_id, ""]);
  });
  document.getElementById("exemplars").innerHTML = html;
  var links = document.getElementById("exemplars").querySelectorAll("td:last-child");
  exs.forEach(function (x, i) {
    if (x.trace_url) {
      links[i].innerHTML = '<a href="' + esc(x.trace_url) + '">spans</a>';
    } else {
      links[i].textContent = "aged out";
    }
  });
}
function refresh() {
  Promise.all([
    fetch("/metrics").then(function (r) { return r.json(); }),
    fetch("/debug/slo").then(function (r) { return r.ok ? r.json() : null; }),
    fetch("/debug/latency").then(function (r) { return r.json(); })
  ]).then(function (res) {
    var m = res[0], sloDoc = res[1], lat = res[2];
    document.getElementById("err").textContent = "";
    document.getElementById("uptime").textContent = fmtDur(m.uptime_seconds);
    document.getElementById("build").textContent =
      m.build.go_version + " · " + m.build.gomaxprocs + "p · " + m.build.goroutines + "g";
    document.getElementById("frames").textContent = m.frames;
    document.getElementById("rendering").textContent = m.rendering;
    document.getElementById("queued").textContent = m.queued;
    renderSLO(sloDoc);
    renderEndpoints(m, lat);
    renderTenants(m);
    renderPhases(m);
    renderExemplars(lat);
  }).catch(function (e) {
    document.getElementById("err").textContent = "refresh failed: " + e;
  });
}
refresh();
setInterval(refresh, 2000);
</script>
</body>
</html>
`
