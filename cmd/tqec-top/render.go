package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"time"

	"tqec/internal/service"
	"tqec/internal/tsdb"
)

// dashboard turns one poll round into one rendered frame.
type dashboard struct {
	client *service.Client
	window time.Duration
	width  int
}

// renderOnce fetches the history window and alert states and writes one
// full dashboard frame.
func (d *dashboard) renderOnce(ctx context.Context, w io.Writer) error {
	end := time.Now()
	start := end.Add(-d.window)
	frames, err := d.client.QueryRange(ctx, "tqecd_*", start, end)
	if err != nil {
		return err
	}
	frames = fleetView(frames)
	goFrames, err := d.client.QueryRange(ctx, "go_*", start, end)
	if err != nil {
		return err
	}
	frames = append(frames, goFrames...)
	var alerts *tsdb.AlertsDoc
	switch doc, err := d.client.Alerts(ctx); {
	case err == nil:
		alerts = &doc
	case !service.IsStatusCode(err, http.StatusNotFound): // 404: no SLOs configured
		return err
	}

	fmt.Fprintf(w, "tqec-top  %s  window %s  %s\n", d.client.BaseURL, d.window, end.Format("15:04:05"))
	fmt.Fprintln(w)

	queued := sumSeries(frames, "tqecd_jobs_queued")
	running := sumSeries(frames, "tqecd_jobs_running")
	done := sumDeltas(frames, "tqecd_jobs_done_total", "tqecd_jobs_done_cached_total")
	failed := sumDeltas(frames, "tqecd_jobs_failed_total")
	d.row(w, "queued jobs", queued, lastValue(queued, "%.0f"))
	d.row(w, "running jobs", running, lastValue(running, "%.0f"))
	d.row(w, "done / tick", done, lastValue(done, "%.0f"))
	d.row(w, "failed / tick", failed, lastValue(failed, "%.0f"))

	p50 := quantileTrend(frames, "tqecd_compile_ms", 0.50)
	p95 := quantileTrend(frames, "tqecd_compile_ms", 0.95)
	d.row(w, "compile p50 ms", p50, lastValue(p50, "%.2f"))
	d.row(w, "compile p95 ms", p95, lastValue(p95, "%.2f"))

	cacheHit := ratioTrend(frames, "tqecd_cache_hits_total", "tqecd_cache_misses_total")
	d.row(w, "cache hit %", cacheHit, lastValue(cacheHit, "%.0f"))
	if affinity := ratioTrend(frames, "tqecd_fleet_affinity_routed_total", "tqecd_fleet_affinity_fallback_total"); len(affinity) > 0 {
		d.row(w, "affinity hit %", affinity, lastValue(affinity, "%.0f"))
	}
	// Durable-store rows appear only when the daemon runs with -data-dir
	// (the tqecd_store_* families exist only then).
	if storeHit := ratioTrend(frames, "tqecd_store_hits_total", "tqecd_store_misses_total"); len(storeHit) > 0 {
		d.row(w, "store hit %", storeHit, lastValue(storeHit, "%.0f"))
	}
	if storeBytes := scaleSeries(sumSeries(frames, "tqecd_store_bytes", "tqecd_store_wal_bytes"), 1.0/(1<<20)); len(storeBytes) > 0 {
		d.row(w, "store MiB", storeBytes, lastValue(storeBytes, "%.2f"))
	}

	heap := sumSeries(frames, "go_memstats_heap_alloc_bytes")
	goroutines := sumSeries(frames, "go_goroutines")
	d.row(w, "heap MiB", scaleSeries(heap, 1.0/(1<<20)), lastValue(scaleSeries(heap, 1.0/(1<<20)), "%.1f"))
	d.row(w, "goroutines", goroutines, lastValue(goroutines, "%.0f"))

	fmt.Fprintln(w)
	renderAlerts(w, alerts)
	return nil
}

// row prints one "label  sparkline  value" line.
func (d *dashboard) row(w io.Writer, label string, pts []tsdb.Point, value string) {
	fmt.Fprintf(w, "%-16s %s %8s\n", label, sparkline(pts, d.width), value)
}

func renderAlerts(w io.Writer, doc *tsdb.AlertsDoc) {
	if doc == nil {
		fmt.Fprintln(w, "alerts: none configured (-slo)")
		return
	}
	fmt.Fprintln(w, "alerts:")
	for _, a := range doc.Alerts {
		marker := " "
		switch a.State {
		case tsdb.StatePending:
			marker = "!"
		case tsdb.StateFiring:
			marker = "*"
		}
		fmt.Fprintf(w, "  %s %-24s %-8s burn fast %.2f slow %.2f\n",
			marker, a.SLO, a.State, a.BurnFast, a.BurnSlow)
	}
	// Trailing transitions, newest last, give the "what just happened".
	events := doc.Events
	if len(events) > 5 {
		events = events[len(events)-5:]
	}
	for _, ev := range events {
		fmt.Fprintf(w, "    %s  %s: %s -> %s\n",
			time.UnixMilli(ev.TimeUnixMS).Format("15:04:05"), ev.SLO, ev.From, ev.To)
	}
}

// sparkline renders points into width cells of ▁▂▃▄▅▆▇█, scaling to the
// series' own min..max (a flat series renders low, not empty).
var sparkCells = []rune("▁▂▃▄▅▆▇█")

func sparkline(pts []tsdb.Point, width int) string {
	if width <= 0 {
		width = 1
	}
	cells := make([]rune, width)
	for i := range cells {
		cells[i] = ' '
	}
	if len(pts) > 0 {
		lo, hi := pts[0].V, pts[0].V
		for _, p := range pts {
			lo = math.Min(lo, p.V)
			hi = math.Max(hi, p.V)
		}
		// Bucket points left-to-right over the cell row; the last value
		// landing in a cell wins, matching the store's own downsampling.
		for i, p := range pts {
			cell := i * width / len(pts)
			frac := 0.0
			if hi > lo {
				frac = (p.V - lo) / (hi - lo)
			}
			level := int(frac * float64(len(sparkCells)-1))
			cells[cell] = sparkCells[level]
		}
	}
	return string(cells)
}

// fleetView keeps, for every family a coordinator also retains per
// worker, only the worker="<id>" series: the coordinator's own series of
// those families count its jobs a second time, and its compile and cache
// families stay empty (it compiles and caches nothing). A daemon without
// per-worker series passes through unchanged.
func fleetView(frames []tsdb.Frame) []tsdb.Frame {
	perWorker := map[string]bool{}
	for _, fr := range frames {
		if workerSeries(fr) {
			perWorker[fr.Name] = true
		}
	}
	out := make([]tsdb.Frame, 0, len(frames))
	for _, fr := range frames {
		if !perWorker[fr.Name] || workerSeries(fr) {
			out = append(out, fr)
		}
	}
	return out
}

func workerSeries(fr tsdb.Frame) bool {
	for _, l := range fr.Labels {
		if l.Name == "worker" {
			return true
		}
	}
	return false
}

// sumSeries merges every frame with one of the given names (across
// worker labels) into a single series, summing values per timestamp.
func sumSeries(frames []tsdb.Frame, names ...string) []tsdb.Point {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	byT := map[int64]float64{}
	for _, fr := range frames {
		if !want[fr.Name] {
			continue
		}
		for _, p := range fr.Points {
			byT[p.T] += p.V
		}
	}
	return sortedPoints(byT)
}

func sortedPoints(byT map[int64]float64) []tsdb.Point {
	out := make([]tsdb.Point, 0, len(byT))
	for t, v := range byT {
		out = append(out, tsdb.Point{T: t, V: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// sumDeltas is sumSeries over each frame's per-sample increases. The
// counter-reset rule (tsdb.Deltas) runs on each series before the sum,
// so one worker restarting or vanishing reads as that worker's change,
// not as a fleet-wide reset.
func sumDeltas(frames []tsdb.Frame, names ...string) []tsdb.Point {
	var deltas []tsdb.Frame
	for _, fr := range frames {
		if slices.Contains(names, fr.Name) {
			fr.Points = tsdb.Deltas(fr.Points)
			deltas = append(deltas, fr)
		}
	}
	return sumSeries(deltas, names...)
}

// ratioTrend renders hit/(hit+miss) per sample step as a percentage from
// the two counter families, skipping steps with no traffic.
func ratioTrend(frames []tsdb.Frame, hitName, missName string) []tsdb.Point {
	byT := map[int64]float64{}
	miss := map[int64]float64{}
	for _, p := range sumDeltas(frames, hitName) {
		byT[p.T] = p.V
	}
	for _, p := range sumDeltas(frames, missName) {
		miss[p.T] = p.V
		if _, ok := byT[p.T]; !ok {
			byT[p.T] = 0
		}
	}
	out := map[int64]float64{}
	for t, hv := range byT {
		total := hv + miss[t]
		if total > 0 {
			out[t] = 100 * hv / total
		}
	}
	return sortedPoints(out)
}

// scaleSeries multiplies every value (for unit conversion).
func scaleSeries(pts []tsdb.Point, k float64) []tsdb.Point {
	out := make([]tsdb.Point, len(pts))
	for i, p := range pts {
		out[i] = tsdb.Point{T: p.T, V: p.V * k}
	}
	return out
}

// quantileTrend estimates a latency quantile at each retained sample
// time over the window so far: tsdb.HistogramQuantile over the
// <name>_bucket frames cut at that time — the estimator the SLO engine
// uses server-side.
func quantileTrend(frames []tsdb.Frame, name string, q float64) []tsdb.Point {
	var buckets []tsdb.Frame
	times := map[int64]float64{} // sample times; sortedPoints orders them
	for _, fr := range frames {
		if fr.Name == name+"_bucket" {
			buckets = append(buckets, fr)
			for _, p := range fr.Points {
				times[p.T] = 0
			}
		}
	}
	var out []tsdb.Point
	for _, p := range sortedPoints(times) {
		upTo := make([]tsdb.Frame, len(buckets))
		for i, fr := range buckets {
			n := sort.Search(len(fr.Points), func(j int) bool { return fr.Points[j].T > p.T })
			fr.Points = fr.Points[:n]
			upTo[i] = fr
		}
		if v := tsdb.HistogramQuantile(q, upTo); !math.IsNaN(v) {
			out = append(out, tsdb.Point{T: p.T, V: v})
		}
	}
	return out
}

// lastValue formats the newest point ("-" when the series is empty).
func lastValue(pts []tsdb.Point, format string) string {
	if len(pts) == 0 {
		return "-"
	}
	return fmt.Sprintf(format, pts[len(pts)-1].V)
}
