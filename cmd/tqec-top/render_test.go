package main

import (
	"context"
	"encoding/json"
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
	frames := []tsdb.Frame{
		{Name: "hits_total", Points: pts(0, 3, 3)},
		{Name: "misses_total", Points: pts(0, 1, 1)},
	}
	got := ratioTrend(frames, "hits_total", "misses_total")
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

	d := &dashboard{client: service.NewClient(ts.URL), window: time.Minute, width: 24}
	var buf strings.Builder
	if err := d.renderOnce(context.Background(), &buf); err != nil {
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

	d := &dashboard{client: service.NewClient(ts.URL), window: time.Minute, width: 8}
	var buf strings.Builder
	if err := d.renderOnce(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "alerts: none configured") {
		t.Fatalf("frame should note alerts are unconfigured:\n%s", buf.String())
	}
}

// TestRatesSurviveOneWorkerResetting serves a coordinator's history in
// which w1 restarts (its counters drop) or vanishes (its series stop)
// while w2 keeps working: the rate and p50 rows must show w2's increase.
// Differencing the cross-worker sum instead reads w1's drop as a
// fleet-wide reset: done / tick 0 and a p50 drawn from old observations.
func TestRatesSurviveOneWorkerResetting(t *testing.T) {
	series := func(name, worker, le string, vs ...float64) tsdb.Frame {
		fr := tsdb.Frame{Name: name, Labels: []obs.Label{{Name: "worker", Value: worker}}, Points: pts(vs...)}
		if le != "" {
			fr.Labels = append(fr.Labels, obs.Label{Name: "le", Value: le})
		}
		return fr
	}
	// w2 finishes two jobs, both slower than the 2.5 ms bound, on top
	// of five old fast ones.
	w2 := []tsdb.Frame{
		series("tqecd_jobs_done_total", "w2", "", 50, 52),
		series("tqecd_compile_ms_bucket", "w2", "1", 5, 5),
		series("tqecd_compile_ms_bucket", "w2", "2.5", 5, 5),
		series("tqecd_compile_ms_bucket", "w2", "+Inf", 5, 7),
	}
	for _, tc := range []struct {
		name string
		w1   []float64 // w1's counters: restart to zero, or a series that stops
	}{
		{"w1 restarts", []float64{100, 0}},
		{"w1 stops", []float64{100}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frames := append([]tsdb.Frame{
				series("tqecd_jobs_done_total", "w1", "", tc.w1...),
				series("tqecd_compile_ms_bucket", "w1", "1", tc.w1...),
				series("tqecd_compile_ms_bucket", "w1", "2.5", tc.w1...),
				series("tqecd_compile_ms_bucket", "w1", "+Inf", tc.w1...),
			}, w2...)
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/v1/query_range" {
					http.NotFound(w, r)
					return
				}
				doc := struct {
					Frames []tsdb.Frame `json:"frames"`
				}{Frames: []tsdb.Frame{}}
				if r.URL.Query().Get("query") == "tqecd_*" {
					doc.Frames = frames
				}
				json.NewEncoder(w).Encode(doc)
			}))
			defer ts.Close()

			d := &dashboard{client: service.NewClient(ts.URL), window: time.Minute, width: 8}
			var buf strings.Builder
			if err := d.renderOnce(context.Background(), &buf); err != nil {
				t.Fatal(err)
			}
			for row, want := range map[string]string{"done / tick": "2", "compile p50 ms": "2.50"} {
				if got := rowValue(buf.String(), row); got != want {
					t.Errorf("%s = %q, want %q\n%s", row, got, want, buf.String())
				}
			}
		})
	}
}

// rowValue returns the value column of the dashboard row with the label.
func rowValue(frame, label string) string {
	for _, line := range strings.Split(frame, "\n") {
		if strings.HasPrefix(line, label+" ") {
			f := strings.Fields(line)
			return f[len(f)-1]
		}
	}
	return ""
}
