package telemetry

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"shearwarp/internal/telemetry/promtest"
)

func TestPromWriterFormat(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	var b strings.Builder
	pw := newPromWriter(&b)
	pw.Counter("demo_requests_total", "requests served", 100, "path", "/render")
	pw.Counter("demo_requests_total", "requests served", 7, "path", "/healthz")
	pw.Gauge("demo_in_flight", "in-flight requests", 2)
	pw.Histogram("demo_request_duration_seconds", "request latency", h.Snapshot(), "path", "/render")
	pw.Counter("demo_escapes_total", `weird "help" with \ and`+"\nnewline", 1, "label", `va"l\ue`+"\n")
	if pw.Err() != nil {
		t.Fatalf("write error: %v", pw.Err())
	}
	out := b.String()
	samples := promtest.Validate(t, out)
	if samples[`demo_requests_total{path="/render"}`] != 100 {
		t.Fatalf("missing render counter in:\n%s", out)
	}
	if samples["demo_in_flight"] != 2 {
		t.Fatalf("missing gauge in:\n%s", out)
	}
	if samples[`demo_request_duration_seconds_count{path="/render"}`] != 100 {
		t.Fatalf("missing histogram count in:\n%s", out)
	}
	// The 100ms max must be inside a finite le bucket of the ladder.
	found := false
	for k, v := range samples {
		if strings.HasPrefix(k, "demo_request_duration_seconds_bucket") && !strings.Contains(k, "+Inf") && v == 100 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no finite bucket holds all observations:\n%s", out)
	}
	if n := strings.Count(out, "# TYPE demo_requests_total"); n != 1 {
		t.Fatalf("TYPE header emitted %d times", n)
	}
}

func TestPromWriterErrSticks(t *testing.T) {
	pw := newPromWriter(failWriter{})
	pw.Counter("x_total", "x", 1)
	if pw.Err() == nil {
		t.Fatal("expected sticky error")
	}
	pw.Gauge("y", "y", 1) // must not panic
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("sink closed") }
