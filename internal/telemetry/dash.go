package telemetry

import (
	"net/http"
	"strings"
)

// Dashboard returns the handler for a daemon's /debug/dash: one HTML page
// with everything — markup, styles, scripts — inlined, whose every data
// fetch is a relative path to the daemon's own endpoints, so it works
// with no network access beyond the daemon (pinned by test: the page
// carries no absolute URL). The shell below is shared: the stylesheet and
// the script helpers. A daemon supplies its name, the header items after
// it, the panels of <main>, and a script that fetches and renders them.
// Scripts put data into markup only through esc and row, which escape
// every value: labels and URLs in the documents are client-controlled.
func Dashboard(name, header, panels, script string) http.HandlerFunc {
	page := []byte(strings.NewReplacer("{{name}}", name, "{{header}}", header,
		"{{panels}}", panels, "{{script}}", script).Replace(dashShell))
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write(page)
	}
}

// dashShell is the page every dashboard shares. The script helpers:
// fmtDur formats seconds; esc escapes text for markup; row renders one
// table row from cells, each a value or {v, cls, href, span} to style it,
// link it or span columns; table fills a <table> with a header row and
// rows; setText sets an element's text; getJSON fetches one of the
// daemon's documents (null when it is not served); every(ms, refresh)
// runs refresh now and every ms milliseconds, reporting failures in the
// header.
const dashShell = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{name}}</title>
<style>
  body { font: 13px/1.5 ui-monospace, monospace; margin: 0; background: #10141a; color: #cdd6e4; }
  header { padding: 10px 16px; background: #161c26; display: flex; gap: 24px; align-items: baseline; flex-wrap: wrap; }
  header h1 { font-size: 15px; margin: 0; color: #7fd1b9; }
  header span { color: #8b98ab; }
  header b { color: #cdd6e4; font-weight: 600; }
  main { padding: 12px 16px; display: grid; gap: 16px; max-width: 1100px; }
  section h2 { font-size: 12px; text-transform: uppercase; letter-spacing: .08em; color: #8b98ab; margin: 0 0 6px; }
  section h2 span { text-transform: none; letter-spacing: 0; }
  table { border-collapse: collapse; width: 100%; }
  th, td { text-align: right; padding: 2px 10px; border-bottom: 1px solid #222b38; white-space: nowrap; }
  th:first-child, td:first-child { text-align: left; }
  th { color: #8b98ab; font-weight: 500; }
  td:first-child, a { color: #7fb3d1; }
  .ok { color: #7fd1b9; }
  .warn { color: #d1c97f; }
  .bad, #err { color: #d17f7f; }
  .sum { font-weight: 600; }
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
</style>
</head>
<body>
<header>
  <h1>{{name}}</h1>
{{header}}  <span id="err"></span>
</header>
<main>
{{panels}}</main>
<script>
"use strict";
function fmtDur(s) {
  if (s >= 3600) return (s / 3600).toFixed(1) + "h";
  if (s >= 60) return (s / 60).toFixed(1) + "m";
  return s.toFixed(0) + "s";
}
function esc(t) {
  return String(t).replace(/[&<>"']/g, function (c) {
    return { "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "'": "&#39;" }[c];
  });
}
function row(cells, header) {
  var tag = header ? "th" : "td";
  return "<tr>" + cells.map(function (c) {
    if (c === null || typeof c !== "object") c = { v: c };
    var v = c.href ? '<a href="' + esc(c.href) + '">' + esc(c.v) + "</a>" : esc(c.v);
    return "<" + tag + (c.cls ? ' class="' + esc(c.cls) + '"' : "") +
      (c.span ? ' colspan="' + esc(c.span) + '"' : "") + ">" + v + "</" + tag + ">";
  }).join("") + "</tr>";
}
function table(id, head, rows) {
  document.getElementById(id).innerHTML = row(head, true) + rows.map(function (r) { return row(r); }).join("");
}
function setText(id, v) { document.getElementById(id).textContent = v; }
function getJSON(path) {
  return fetch(path).then(function (r) { return r.ok ? r.json() : null; });
}
function every(ms, refresh) {
  function run() {
    Promise.resolve().then(refresh).then(function () { setText("err", ""); },
      function (e) { setText("err", "refresh failed: " + e); });
  }
  run();
  setInterval(run, ms);
}
{{script}}</script>
</body>
</html>
`
