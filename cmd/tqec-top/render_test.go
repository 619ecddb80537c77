package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tqec/internal/circuit"
	"tqec/internal/compress"
	"tqec/internal/obs"
	"tqec/internal/service"
	"tqec/internal/tsdb"
)

func pts(vs ...float64) []tsdb.Point {
	out := make([]tsdb.Point, len(vs))
	for i, v := range vs {
		out[i] = tsdb.Point{T: int64(i * 1000), V: v}
	}
	return out
}

func TestSparklineScalesToSeriesRange(t *testing.T) {
	s := sparkline(pts(0, 1, 2, 3, 4, 5, 6, 7), 8)
	if s != "▁▂▃▄▅▆▇█" {
		t.Fatalf("sparkline = %q", s)
	}
	if got := sparkline(pts(5, 5, 5), 3); got != "▁▁▁" {
		t.Fatalf("flat series = %q, want low cells", got)
	}
	if got := sparkline(nil, 4); got != "    " {
		t.Fatalf("empty series = %q, want blanks", got)
	}
}

func TestRateSeriesClampsResets(t *testing.T) {
	got := rateSeries(pts(5, 9, 2, 3))
	want := []float64{4, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("rateSeries len = %d, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].V != w {
			t.Fatalf("rate[%d] = %g, want %g", i, got[i].V, w)
		}
	}
}

func TestSumSeriesMergesWorkers(t *testing.T) {
	frames := []tsdb.Frame{
		{Name: "tqecd_jobs_queued", Labels: []obs.Label{{Name: "worker", Value: "w1"}}, Points: pts(1, 2)},
		{Name: "tqecd_jobs_queued", Labels: []obs.Label{{Name: "worker", Value: "w2"}}, Points: pts(10, 20)},
		{Name: "tqecd_jobs_running", Points: pts(100, 100)},
	}
	got := sumSeries(frames, "tqecd_jobs_queued")
	if len(got) != 2 || got[0].V != 11 || got[1].V != 22 {
		t.Fatalf("sumSeries = %+v, want [11 22]", got)
	}
}

func TestFleetViewPrefersWorkerSeries(t *testing.T) {
	w1 := []obs.Label{{Name: "worker", Value: "w1"}}
	frames := fleetView([]tsdb.Frame{
		{Name: "tqecd_jobs_done_total", Points: pts(5)},
		{Name: "tqecd_jobs_done_total", Labels: w1, Points: pts(3)},
		{Name: "tqecd_fleet_dispatches_total", Points: pts(7)},
	})
	if got := sumSeries(frames, "tqecd_jobs_done_total"); len(got) != 1 || got[0].V != 3 {
		t.Fatalf("done = %+v, want only the worker series (3)", got)
	}
	if got := sumSeries(frames, "tqecd_fleet_dispatches_total"); len(got) != 1 || got[0].V != 7 {
		t.Fatalf("dispatches = %+v, want the coordinator's own series (7)", got)
	}
}

func TestRatioTrend(t *testing.T) {
	hits := pts(0, 3, 3)
	misses := pts(0, 1, 1)
	got := ratioTrend(hits, misses)
	// Step 1: 3 hits / 4 total = 75%; step 2 has no traffic and is skipped.
	if len(got) != 1 || got[0].V != 75 {
		t.Fatalf("ratioTrend = %+v, want one 75%% point", got)
	}
}

func TestQuantileTrend(t *testing.T) {
	le := func(v string) []obs.Label { return []obs.Label{{Name: "le", Value: v}} }
	frames := []tsdb.Frame{
		{Name: "tqecd_compile_ms_bucket", Labels: le("1"), Points: pts(0, 10)},
		{Name: "tqecd_compile_ms_bucket", Labels: le("2"), Points: pts(0, 20)},
		{Name: "tqecd_compile_ms_bucket", Labels: le("+Inf"), Points: pts(0, 20)},
	}
	got := quantileTrend(frames, "tqecd_compile_ms", 0.5)
	if len(got) != 1 {
		t.Fatalf("quantileTrend = %+v, want one point", got)
	}
	// Median of 10-in-(0,1] + 10-in-(1,2] sits exactly at the first bound.
	if math.Abs(got[0].V-1) > 1e-9 {
		t.Fatalf("p50 = %g, want 1", got[0].V)
	}
}

func TestFrameLE(t *testing.T) {
	if v, ok := frameLE(tsdb.Frame{Labels: []obs.Label{{Name: "le", Value: "+Inf"}}}); !ok || !math.IsInf(v, 1) {
		t.Fatalf("frameLE(+Inf) = %g, %v", v, ok)
	}
	if _, ok := frameLE(tsdb.Frame{Labels: []obs.Label{{Name: "worker", Value: "w1"}}}); ok {
		t.Fatal("frameLE without le label should report false")
	}
}

// TestRenderOnceAgainstLiveService drives the full fetch+render path
// against a real self-scraping service — the same round -once performs.
func TestRenderOnceAgainstLiveService(t *testing.T) {
	svc := service.New(context.Background(), service.Config{
		Workers:         1,
		HistoryInterval: 15 * time.Millisecond,
		SLOs: []tsdb.Objective{{
			Name:   "job-success",
			Good:   []string{"tqecd_jobs_done_total"},
			Bad:    []string{"tqecd_jobs_failed_total"},
			Target: 0.99,
		}},
		Logger: obs.NopLogger(),
		Runner: service.Compiler(func(ctx context.Context, c *circuit.Circuit, opt compress.Options, seeds []int64, parallel int) (*compress.Result, error) {
			return &compress.Result{}, nil
		}),
	})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"source":{"sample":"threecnot"},"options":{"mode":"full"}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	time.Sleep(100 * time.Millisecond) // a few scrape ticks

	d := &dashboard{
		client: &historyClient{base: ts.URL, http: ts.Client()},
		window: time.Minute,
		width:  24,
	}
	var buf strings.Builder
	if err := d.renderOnce(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"queued jobs", "compile p95 ms", "goroutines", "job-success", "inactive"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered frame missing %q:\n%s", want, out)
		}
	}
}

func TestRenderOnceNoAlertsConfigured(t *testing.T) {
	svc := service.New(context.Background(), service.Config{
		Workers:         1,
		HistoryInterval: 15 * time.Millisecond,
		Logger:          obs.NopLogger(),
	})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	time.Sleep(50 * time.Millisecond)

	d := &dashboard{client: &historyClient{base: ts.URL, http: ts.Client()}, window: time.Minute, width: 8}
	var buf strings.Builder
	if err := d.renderOnce(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "alerts: none configured") {
		t.Fatalf("frame should note alerts are unconfigured:\n%s", buf.String())
	}
}
