package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// LogConfig is the shared logger configuration of the tqec CLIs and the
// tqecd daemon, so every binary emits the same structured line shape and
// understands the same -log-level / -log-format flag values.
type LogConfig struct {
	// Level is debug, info, warn, or error (default info).
	Level string
	// Format is text or json (default text).
	Format string
	// Writer receives the log output (required).
	Writer io.Writer
}

// NewLogger builds a slog.Logger from the shared configuration.
func NewLogger(cfg LogConfig) (*slog.Logger, error) {
	var level slog.Level
	switch strings.ToLower(cfg.Level) {
	case "", "info":
		level = slog.LevelInfo
	case "debug":
		level = slog.LevelDebug
	case "warn", "warning":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	default:
		return nil, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", cfg.Level)
	}
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(cfg.Format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(cfg.Writer, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(cfg.Writer, opts)), nil
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want text|json)", cfg.Format)
	}
}

// NopLogger returns a logger that discards everything (tests, tools).
func NopLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// RequestIDHeader is the log-correlation header name.
const RequestIDHeader = "X-Request-ID"

type requestIDKey struct{}

// NewRequestID draws a fresh 8-byte request ID for X-Request-ID log
// correlation.
func NewRequestID() string {
	b := make([]byte, 8)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand never fails on supported platforms; a fixed ID
		// keeps the request going rather than panicking in a logging
		// path.
		return "ffffffffffffffff"
	}
	return hex.EncodeToString(b)
}

// WithRequestID returns ctx carrying a request ID for outbound HTTP
// serialization and log correlation. Empty IDs return ctx unchanged.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom returns the request ID carried by ctx, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}
