package tsdb

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"tqec/internal/obs"
)

func TestEstimateQuantile(t *testing.T) {
	inf := math.Inf(1)
	t.Run("exact bucket boundary", func(t *testing.T) {
		// Rank lands exactly on the first bucket's full count: the
		// estimate must be exactly that bucket's upper bound, no bleed
		// into the next bucket.
		b := []Bucket{{1, 10}, {2, 20}, {inf, 20}}
		if got := EstimateQuantile(0.5, b); got != 1 {
			t.Fatalf("q0.5 = %g, want exactly 1", got)
		}
	})
	t.Run("interpolation", func(t *testing.T) {
		// q0.75 of 20 obs → rank 15, halfway through bucket (1, 2].
		b := []Bucket{{1, 10}, {2, 20}, {inf, 20}}
		if got := EstimateQuantile(0.75, b); got != 1.5 {
			t.Fatalf("q0.75 = %g, want 1.5", got)
		}
	})
	t.Run("empty histogram", func(t *testing.T) {
		if got := EstimateQuantile(0.95, nil); !math.IsNaN(got) {
			t.Fatalf("no buckets: q = %g, want NaN", got)
		}
		b := []Bucket{{1, 0}, {inf, 0}}
		if got := EstimateQuantile(0.95, b); !math.IsNaN(got) {
			t.Fatalf("zero observations: q = %g, want NaN", got)
		}
	})
	t.Run("quantile in +Inf bucket", func(t *testing.T) {
		b := []Bucket{{1, 1}, {inf, 10}}
		if got := EstimateQuantile(0.99, b); got != 1 {
			t.Fatalf("q0.99 = %g, want highest finite bound 1", got)
		}
	})
	t.Run("only +Inf bucket", func(t *testing.T) {
		if got := EstimateQuantile(0.5, []Bucket{{inf, 5}}); !math.IsNaN(got) {
			t.Fatalf("q = %g, want NaN", got)
		}
	})
}

// TestQuantileAfterCounterReset drives the engine's histogram path across
// a worker restart: bucket counters drop to zero mid-window and the
// post-reset observations must still be counted via Increase.
func TestQuantileAfterCounterReset(t *testing.T) {
	db := New(32)
	le := func(v string) []obs.Label { return []obs.Label{{Name: "le", Value: v}} }
	// Before reset: 4 obs ≤ 1, 8 total ≤ 2, 8 total.
	db.Append("h_bucket", le("1"), obs.SampleCounter, ts(0), 4)
	db.Append("h_bucket", le("2"), obs.SampleCounter, ts(0), 8)
	db.Append("h_bucket", le("+Inf"), obs.SampleCounter, ts(0), 8)
	// Restart: counters reset, then 2 slow obs land in (2, +Inf].
	db.Append("h_bucket", le("1"), obs.SampleCounter, ts(10), 0)
	db.Append("h_bucket", le("2"), obs.SampleCounter, ts(10), 0)
	db.Append("h_bucket", le("+Inf"), obs.SampleCounter, ts(10), 2)
	obj := Objective{Name: "lat", Histogram: "h", Quantile: 0.5, ThresholdSeconds: 1}
	e := NewEngine(db, []Objective{obj}, nil, nil)
	// Window covers both sides of the reset. Increases: le1 = 0 (reset
	// to 0 adds 0), le2 = 0, +Inf = 2 → all mass beyond the highest
	// finite bound, q0.5 = 2 (highest finite bound).
	got := e.histQuantile(obj, ts(0), ts(20))
	if got != 2 {
		t.Fatalf("post-reset q0.5 = %g, want 2", got)
	}
}

// TestHistogramQuantileMergesWorkers merges two workers' bucket series
// after each has had the reset rule applied on its own: w1 restarts,
// w2 keeps growing, and the quantile reads w2's new observations. A
// frame without an le label is ignored and "+Inf" parses as the
// overflow bound.
func TestHistogramQuantileMergesWorkers(t *testing.T) {
	frame := func(worker, le string, vs ...float64) Frame {
		f := Frame{Name: "h_bucket", Labels: []obs.Label{{Name: "worker", Value: worker}}}
		if le != "" {
			f.Labels = append(f.Labels, obs.Label{Name: "le", Value: le})
		}
		for i, v := range vs {
			f.Points = append(f.Points, Point{T: int64(i), V: v})
		}
		return f
	}
	frames := []Frame{
		// w1 restarts: its buckets drop to zero and add nothing.
		frame("w1", "1", 10, 0), frame("w1", "2.5", 10, 0), frame("w1", "+Inf", 10, 0),
		// w2 adds four observations in (1, 2.5] on top of five old fast ones.
		frame("w2", "1", 5, 5), frame("w2", "2.5", 5, 9), frame("w2", "+Inf", 5, 9),
		frame("w2", "", 0, 1000),
	}
	if got, want := HistogramQuantile(0.5, frames), 1.75; got != want {
		t.Fatalf("merged p50 = %g, want %g", got, want)
	}
	if got := HistogramQuantile(0.5, frames[:3]); !math.IsNaN(got) {
		t.Fatalf("p50 of the reset worker alone = %g, want NaN (no observations)", got)
	}
}

// seedRatio appends good/bad counter samples at 1s cadence over
// [from, to) with the given per-tick failure pattern.
func seedRatio(db *DB, from, to int64, goodRate, badRate float64) {
	var good, bad float64
	for s := from; s < to; s++ {
		good += goodRate
		bad += badRate
		db.Append("jobs_done_total", nil, obs.SampleCounter, ts(s), good)
		db.Append("jobs_failed_total", nil, obs.SampleCounter, ts(s), bad)
	}
}

func TestSLOAlertLifecycle(t *testing.T) {
	db := New(1024)
	reg := obs.NewRegistry()
	obj := Objective{
		Name:              "job-success",
		Good:              []string{"jobs_done_total"},
		Bad:               []string{"jobs_failed_total"},
		Target:            0.99,
		FastWindowSeconds: 10,
		SlowWindowSeconds: 30,
		ForSeconds:        5,
	}
	e := NewEngine(db, []Objective{obj}, reg, nil)

	// Healthy traffic: all good, burn 0, alert inactive.
	seedRatio(db, 0, 40, 1, 0)
	e.Eval(ts(40))
	if st := e.Snapshot().Alerts[0]; st.State != StateInactive || st.BurnFast != 0 {
		t.Fatalf("healthy: %+v", st)
	}

	// Failure streak: 50%% failures burns 50× a 1%% budget in both
	// windows → pending.
	seedRatio(db, 40, 80, 1, 1)
	e.Eval(ts(80))
	if st := e.Snapshot().Alerts[0]; st.State != StatePending {
		t.Fatalf("after streak: state = %q, want pending (%+v)", st.State, st)
	}

	// Condition persists past `for` → firing.
	seedRatio(db, 80, 90, 1, 1)
	e.Eval(ts(90))
	doc := e.Snapshot()
	if st := doc.Alerts[0]; st.State != StateFiring {
		t.Fatalf("after for-duration: state = %q, want firing (%+v)", st.State, st)
	}
	if len(doc.Events) != 2 || doc.Events[0].To != StatePending || doc.Events[1].To != StateFiring {
		t.Fatalf("events = %+v", doc.Events)
	}

	// Metric mirror: state gauge 2, firing count 1, 2 transitions.
	samples := reg.Gather()
	want := map[string]float64{
		"tqecd_slo_alert_state|slo=job-success": 2,
		"tqecd_slo_alerts_firing":               1,
		"tqecd_slo_transitions_total":           2,
	}
	for _, s := range samples {
		key := s.Name
		for _, l := range s.Labels {
			key += "|" + l.Name + "=" + l.Value
		}
		if w, ok := want[key]; ok {
			if s.Value != w {
				t.Errorf("metric %s = %g, want %g", key, s.Value, w)
			}
			delete(want, key)
		}
	}
	for k := range want {
		t.Errorf("metric %s not gathered", k)
	}

	// Recovery: clean traffic pushes both windows back under budget →
	// inactive again (three more transitions total).
	seedRatio(db, 90, 130, 5, 0)
	e.Eval(ts(130))
	if st := e.Snapshot().Alerts[0]; st.State != StateInactive {
		t.Fatalf("after recovery: state = %q, want inactive (%+v)", st.State, st)
	}
}

// TestSLOFlickerResetsPending pins the multiwindow guard: a burst that
// clears before the `for` duration drops the alert back to inactive
// rather than escalating.
func TestSLOFlickerResetsPending(t *testing.T) {
	db := New(1024)
	obj := Objective{
		Name: "flicker", Good: []string{"jobs_done_total"}, Bad: []string{"jobs_failed_total"},
		Target: 0.99, FastWindowSeconds: 5, SlowWindowSeconds: 10, ForSeconds: 30,
	}
	e := NewEngine(db, []Objective{obj}, nil, nil)
	seedRatio(db, 0, 20, 1, 1)
	e.Eval(ts(20))
	if st := e.Snapshot().Alerts[0]; st.State != StatePending {
		t.Fatalf("burst: state = %q, want pending", st.State)
	}
	seedRatio(db, 20, 40, 1, 0)
	e.Eval(ts(40)) // fast window clean again, still < for duration
	if st := e.Snapshot().Alerts[0]; st.State != StateInactive {
		t.Fatalf("flicker: state = %q, want inactive", st.State)
	}
}

func TestParseObjectives(t *testing.T) {
	data := []byte(`{
	  "fast_window_seconds": 15,
	  "for_seconds": 20,
	  "objectives": [
	    {"name": "ok-ratio", "good": ["g_total"], "bad": ["b_total"], "target": 0.99},
	    {"name": "ok-latency", "histogram": "h_seconds", "quantile": 0.95,
	     "threshold_seconds": 2, "fast_window_seconds": 5}
	  ]
	}`)
	objs, err := ParseObjectives(data)
	if err != nil {
		t.Fatal(err)
	}
	if objs[0].FastWindowSeconds != 15 || objs[0].ForSeconds != 20 {
		t.Fatalf("file defaults not folded in: %+v", objs[0])
	}
	if objs[1].FastWindowSeconds != 5 {
		t.Fatalf("objective override lost: %+v", objs[1])
	}

	for name, bad := range map[string]string{
		"no objectives": `{"objectives": []}`,
		"both shapes":   `{"objectives":[{"name":"x","bad":["b"],"target":0.9,"histogram":"h","quantile":0.5,"threshold_seconds":1}]}`,
		"neither shape": `{"objectives":[{"name":"x"}]}`,
		"bad target":    `{"objectives":[{"name":"x","bad":["b"],"target":1.5}]}`,
		"bad quantile":  `{"objectives":[{"name":"x","histogram":"h","quantile":2,"threshold_seconds":1}]}`,
		"no threshold":  `{"objectives":[{"name":"x","histogram":"h","quantile":0.5}]}`,
		"no name":       `{"objectives":[{"bad":["b"],"target":0.9}]}`,
	} {
		if _, err := ParseObjectives([]byte(bad)); err == nil {
			t.Errorf("%s: parse succeeded, want error", name)
		}
	}
}

func TestHandleAlerts(t *testing.T) {
	db := New(64)
	obj := Objective{Name: "x", Bad: []string{"b_total"}, Good: []string{"g_total"}, Target: 0.9}
	e := NewEngine(db, []Objective{obj}, nil, nil)
	e.Eval(ts(0))
	rec := httptest.NewRecorder()
	HandleAlerts(e)(rec, httptest.NewRequest("GET", "/v1/alerts", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var doc AlertsDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Alerts) != 1 || doc.Alerts[0].SLO != "x" || doc.Alerts[0].State != StateInactive {
		t.Fatalf("doc = %+v", doc)
	}
}

// TestLatencyObjective drives a latency SLO through the quantile path
// end to end: a registry histogram is scraped into the DB and the p95
// crossing the threshold trips the alert condition.
func TestLatencyObjective(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("tqecd_fake_run_seconds", "fake", []float64{0.1, 1, 10})
	db := New(256)
	col := NewCollector(db, reg, time.Second)
	obj := Objective{
		Name: "p95", Histogram: "tqecd_fake_run_seconds", Quantile: 0.95,
		ThresholdSeconds: 1, FastWindowSeconds: 10, SlowWindowSeconds: 20, ForSeconds: 1,
	}
	e := NewEngine(db, []Objective{obj}, nil, nil)

	col.ScrapeOnce(ts(0))
	for i := 0; i < 100; i++ {
		h.Observe(0.05) // fast
	}
	col.ScrapeOnce(ts(5))
	e.Eval(ts(5))
	if st := e.Snapshot().Alerts[0]; st.State != StateInactive {
		t.Fatalf("fast traffic: state = %q (%+v)", st.State, st)
	}

	for i := 0; i < 100; i++ {
		h.Observe(5) // slow: p95 lands in (1, 10]
	}
	col.ScrapeOnce(ts(10))
	e.Eval(ts(10))
	st := e.Snapshot().Alerts[0]
	if st.State != StatePending {
		t.Fatalf("slow traffic: state = %q, want pending (%+v)", st.State, st)
	}
	if st.BurnFast <= 1 {
		t.Fatalf("burn_fast = %g, want > 1", st.BurnFast)
	}
}
