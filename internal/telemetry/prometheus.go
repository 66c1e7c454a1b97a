package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// PromContentType is the Content-Type of the Prometheus text exposition
// format version this writer emits.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promBoundsNS is the le-ladder histograms expose: power-of-two
// nanosecond boundaries from 1µs-ish to ~69s. Powers of two coincide
// exactly with the internal bucket boundaries, so the exported
// cumulative counts are exact, and 27 buckets keep the scrape payload
// small while spanning admission waits (sub-microsecond under no load)
// through watchdog-scale frames.
var promBoundsNS = func() []int64 {
	var b []int64
	for k := uint(10); k <= 36; k++ { // 1.02µs .. 68.7s
		b = append(b, int64(1)<<k)
	}
	return b
}()

// PromWriter emits the Prometheus text exposition format (version
// 0.0.4). It tracks which metric names have had their HELP/TYPE header
// written, so callers must emit all series of one metric name
// consecutively (the format requires one contiguous group per name).
// The first write error sticks and short-circuits later writes.
type PromWriter struct {
	w    io.Writer
	seen map[string]bool
	err  error
}

// newPromWriter returns a writer targeting w.
func newPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, seen: make(map[string]bool)}
}

// Err returns the first error encountered while writing.
func (pw *PromWriter) Err() error { return pw.err }

func (pw *PromWriter) printf(format string, args ...any) {
	if pw.err != nil {
		return
	}
	_, pw.err = fmt.Fprintf(pw.w, format, args...)
}

// header writes the HELP/TYPE block for name once.
func (pw *PromWriter) header(name, help, typ string) {
	if pw.seen[name] {
		return
	}
	pw.seen[name] = true
	pw.printf("# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// escapeHelp escapes backslashes and newlines in HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// labelString renders k=v pairs as {k="v",...}; extra, when non-empty,
// is a pre-rendered pair (the histogram le label) appended last.
func labelString(labels []string, extra string) string {
	if len(labels) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	if extra != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter emits one counter sample. labels are alternating key, value
// pairs. All samples sharing name must be emitted consecutively.
func (pw *PromWriter) Counter(name, help string, v float64, labels ...string) {
	pw.header(name, help, "counter")
	pw.printf("%s%s %s\n", name, labelString(labels, ""), formatFloat(v))
}

// Gauge emits one gauge sample.
func (pw *PromWriter) Gauge(name, help string, v float64, labels ...string) {
	pw.header(name, help, "gauge")
	pw.printf("%s%s %s\n", name, labelString(labels, ""), formatFloat(v))
}

// Histogram emits one histogram series (cumulative _bucket lines over
// the package le-ladder plus +Inf, then _sum and _count) from a
// snapshot. Durations are exposed in seconds, the Prometheus base unit.
func (pw *PromWriter) Histogram(name, help string, s *HistogramSnapshot, labels ...string) {
	pw.header(name, help, "histogram")
	for _, b := range promBoundsNS {
		le := `le="` + formatFloat(float64(b)/1e9) + `"`
		pw.printf("%s_bucket%s %d\n", name, labelString(labels, le), s.CumulativeLE(b))
	}
	pw.printf("%s_bucket%s %d\n", name, labelString(labels, `le="+Inf"`), s.Count)
	pw.printf("%s_sum%s %s\n", name, labelString(labels, ""), formatFloat(float64(s.SumNS)/1e9))
	pw.printf("%s_count%s %d\n", name, labelString(labels, ""), s.Count)
}
