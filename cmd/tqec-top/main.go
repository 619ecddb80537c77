// Command tqec-top is a live terminal dashboard for a tqecd daemon or
// fleet coordinator started with -self-scrape. It polls the metrics
// history (GET /v1/query_range) and the SLO alert states (GET
// /v1/alerts) and renders Unicode sparklines for the signals that
// matter when a compile service misbehaves: queue depth, job
// throughput, compile-latency quantiles, cache and affinity hit rates,
// heap, and goroutines — plus a pane of pending/firing alerts.
//
// Usage:
//
//	tqec-top -addr http://localhost:8142
//	tqec-top -addr http://localhost:8142 -interval 1s -window 10m
//	tqec-top -addr http://localhost:8142 -once   # one frame, no ANSI (CI, pipes)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"tqec/internal/service"
)

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8142", "tqecd (or coordinator) base URL")
		interval = flag.Duration("interval", 2*time.Second, "poll cadence")
		window   = flag.Duration("window", 5*time.Minute, "history window to render")
		width    = flag.Int("width", 48, "sparkline width in cells")
		once     = flag.Bool("once", false, "render a single frame without ANSI control codes and exit")
	)
	flag.Parse()

	client := service.NewClient(*addr)
	client.HTTPClient = &http.Client{Timeout: 10 * time.Second}
	d := &dashboard{client: client, window: *window, width: *width}
	ctx := context.Background()

	if *once {
		if err := d.renderOnce(ctx, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tqec-top:", err)
			os.Exit(1)
		}
		return
	}

	// Alternate-screen loop: home the cursor and repaint each tick,
	// clearing to end-of-line per row so shrinking lines leave no litter.
	fmt.Print("\x1b[?1049h\x1b[?25l")
	defer fmt.Print("\x1b[?25h\x1b[?1049l")
	t := time.NewTicker(*interval)
	defer t.Stop()
	for {
		var buf strings.Builder
		buf.WriteString("\x1b[H")
		if err := d.renderOnce(ctx, ansiWriter{&buf}); err != nil {
			fmt.Fprintf(&buf, "tqec-top: %v\x1b[K\r\n", err)
		}
		buf.WriteString("\x1b[J")
		os.Stdout.WriteString(buf.String())
		<-t.C
	}
}

// ansiWriter rewrites bare newlines into clear-to-eol + CRLF so the
// repaint loop can overwrite the previous frame in place.
type ansiWriter struct{ w io.Writer }

func (a ansiWriter) Write(p []byte) (int, error) {
	replaced := strings.ReplaceAll(string(p), "\n", "\x1b[K\r\n")
	if _, err := io.WriteString(a.w, replaced); err != nil {
		return 0, err
	}
	return len(p), nil
}
