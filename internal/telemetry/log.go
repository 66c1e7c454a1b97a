package telemetry

import (
	"context"
	"flag"
	"io"
	"log/slog"
	"os"
)

// Structured logging for the render service. The service logs with
// log/slog; every request carries a request ID (the trace ID when
// tracing is on) threaded through the handler, the admission path, the
// renderer-pool path and the watchdog via context, so one slow or
// failed request's log lines correlate with its span trace and its
// place in the latency histograms.

// ctxKey is the private context-key type for telemetry values.
type ctxKey int

const requestIDKey ctxKey = iota

// WithRequestID returns ctx carrying the request ID.
func WithRequestID(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestID returns the request ID carried by ctx (0 = none).
func RequestID(ctx context.Context) uint64 {
	id, _ := ctx.Value(requestIDKey).(uint64)
	return id
}

// discardHandler is a slog.Handler that drops everything (slog gained a
// built-in one only in Go 1.24; this module supports 1.22).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// DiscardLogger returns a logger that drops every record — the default
// for embedded servers (tests) so they stay silent unless a logger is
// injected.
func DiscardLogger() *slog.Logger { return slog.New(discardHandler{}) }

// NewLogger builds the service logger: JSON or logfmt-style text
// records on w at the given level. format is "json" or "text"; anything
// else (notably "off") discards.
func NewLogger(w io.Writer, format string, level slog.Level) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts))
	case "text":
		return slog.New(slog.NewTextHandler(w, opts))
	}
	return DiscardLogger()
}

// LogFlags declares -log-format and -log-level on fs. Setting either
// rebuilds *logger from both, so nothing resolves them after Parse;
// neither set leaves *logger nil, which the daemons treat as logging off.
func LogFlags(fs *flag.FlagSet, logger **slog.Logger) {
	format, level := "", slog.LevelInfo
	set := func() { *logger = NewLogger(os.Stderr, format, level) }
	fs.Func("log-format", "structured log format: text | json (empty = logging off)", func(s string) error {
		format = s
		set()
		return nil
	})
	fs.Func("log-level", "minimum log level: debug | info | warn | error", func(s string) error {
		if err := level.UnmarshalText([]byte(s)); err != nil {
			return err
		}
		set()
		return nil
	})
	fs.Lookup("log-level").DefValue = "info"
}
