package fleet

import (
	"net/http"
	"net/url"
	"testing"
	"time"

	"tqec/internal/service"
	"tqec/internal/tsdb"
)

// queryFrames hits the coordinator's /v1/query_range and decodes it.
func (f *testFleet) queryFrames(t *testing.T, params string) []tsdb.Frame {
	t.Helper()
	var doc struct {
		Frames []tsdb.Frame `json:"frames"`
	}
	if code := getJSON(t, f.ts.URL+"/v1/query_range?"+params, &doc); code != http.StatusOK {
		t.Fatalf("query_range %s: http %d", params, code)
	}
	return doc.Frames
}

// workerLabel returns the frame's worker label value ("" when absent).
func workerLabel(fr tsdb.Frame) string {
	for _, l := range fr.Labels {
		if l.Name == "worker" {
			return l.Value
		}
	}
	return ""
}

func TestFleetHistoryRetainsPerWorkerSeries(t *testing.T) {
	f := newTestFleet(t, Config{Config: service.Config{
		HistoryInterval: 30 * time.Millisecond,
	}}, []string{"w1", "w2"}, nil)

	st := f.submit(t, threecnotBody)
	if got := f.waitJob(t, st.ID, 30*time.Second); got.State != "done" {
		t.Fatalf("job ended %s, want done", got.State)
	}

	// Each worker must accumulate at least two retained samples for the
	// tqecd job counters, labelled with its identity.
	waitCondition(t, 10*time.Second, "two points per worker", func() bool {
		frames := f.queryFrames(t, "query=tqecd_jobs_done_total")
		points := map[string]int{}
		for _, fr := range frames {
			if w := workerLabel(fr); w != "" {
				points[w] = len(fr.Points)
			}
		}
		return points["w1"] >= 2 && points["w2"] >= 2
	})

	// The coordinator's own families are retained too, including the
	// per-worker clock-offset gauge fed by heartbeats.
	waitCondition(t, 10*time.Second, "clock offset series per worker", func() bool {
		frames := f.queryFrames(t, "query=tqecd_fleet_worker_clock_offset_us")
		seen := map[string]bool{}
		for _, fr := range frames {
			if len(fr.Points) >= 2 {
				seen[workerLabel(fr)] = true
			}
		}
		return seen["w1"] && seen["w2"]
	})

	// Prefix queries sweep every retained tqecd family.
	if frames := f.queryFrames(t, "query=tqecd_*"); len(frames) < 10 {
		t.Fatalf("prefix query returned %d frames, want many", len(frames))
	}
}

// TestFleetHistoryRetainsEveryWorkerFamily checks that the coordinator
// retains a worker's whole exposition, not a hand-picked subset: the
// run-time histogram, the per-stage timings and the runtime's GC pauses
// all come back labelled with the worker that exposed them.
func TestFleetHistoryRetainsEveryWorkerFamily(t *testing.T) {
	f := newTestFleet(t, Config{Config: service.Config{
		HistoryInterval: 30 * time.Millisecond,
	}}, []string{"w1"}, nil)

	st := f.submit(t, threecnotBody)
	if got := f.waitJob(t, st.ID, 30*time.Second); got.State != "done" {
		t.Fatalf("job ended %s, want done", got.State)
	}
	// The compile is observed in the run-time and stage histograms; the
	// GC pause series need only exist (the GC may not have run yet).
	for name, atLeast := range map[string]float64{
		"tqecd_job_run_seconds_count": 1,
		"tqecd_stage_ms_count":        1,
		"go_gc_pauses_seconds_count":  0,
	} {
		query := "query=" + url.QueryEscape(name+`{worker="w1"}`)
		waitCondition(t, 10*time.Second, name+` frames for worker="w1"`, func() bool {
			for _, fr := range f.queryFrames(t, query) {
				if fr.Points[len(fr.Points)-1].V >= atLeast {
					return true
				}
			}
			return false
		})
	}
}

func TestFleetHistoryDeadWorkerGoesStale(t *testing.T) {
	f := newTestFleet(t, Config{Config: service.Config{
		HistoryInterval: 25 * time.Millisecond,
	}}, []string{"w1", "w2"}, nil)

	// Let both workers accumulate some history first.
	waitCondition(t, 10*time.Second, "both workers retained", func() bool {
		seen := map[string]bool{}
		for _, fr := range f.queryFrames(t, "query=tqecd_jobs_submitted_total") {
			if len(fr.Points) >= 2 {
				seen[workerLabel(fr)] = true
			}
		}
		return seen["w1"] && seen["w2"]
	})

	f.workers["w2"].kill()

	// w2 stops producing samples; once its last point trails the store's
	// write cursor past the staleness horizon its frames flip stale while
	// w1 keeps advancing unstale.
	waitCondition(t, 10*time.Second, "w2 frames marked stale", func() bool {
		var w1Fresh, w2Stale bool
		for _, fr := range f.queryFrames(t, "query=tqecd_jobs_submitted_total") {
			switch workerLabel(fr) {
			case "w1":
				w1Fresh = !fr.Stale
			case "w2":
				w2Stale = fr.Stale
			}
		}
		return w1Fresh && w2Stale
	})
}

func TestFleetHistoryDisabledAnswers404(t *testing.T) {
	f := newTestFleet(t, Config{}, []string{"w1"}, nil)
	if code := getJSON(t, f.ts.URL+"/v1/query_range?query=tqecd_jobs_done_total", nil); code != http.StatusNotFound {
		t.Fatalf("query_range with history disabled: http %d, want 404", code)
	}
	if code := getJSON(t, f.ts.URL+"/v1/alerts", nil); code != http.StatusNotFound {
		t.Fatalf("alerts with no SLOs: http %d, want 404", code)
	}
}

func TestFleetAlertsStartInactive(t *testing.T) {
	f := newTestFleet(t, Config{Config: service.Config{
		HistoryInterval: 25 * time.Millisecond,
		SLOs: []tsdb.Objective{{
			Name:   "job-success",
			Good:   []string{"tqecd_jobs_done_total", "tqecd_jobs_done_cached_total"},
			Bad:    []string{"tqecd_jobs_failed_total"},
			Target: 0.99,
		}},
	}}, []string{"w1"}, nil)

	var doc tsdb.AlertsDoc
	waitCondition(t, 10*time.Second, "alert evaluated inactive", func() bool {
		if code := getJSON(t, f.ts.URL+"/v1/alerts", &doc); code != http.StatusOK {
			return false
		}
		return len(doc.Alerts) == 1 && doc.Alerts[0].State == tsdb.StateInactive
	})
	if doc.Alerts[0].SLO != "job-success" {
		t.Fatalf("alert slo = %q", doc.Alerts[0].SLO)
	}
}
