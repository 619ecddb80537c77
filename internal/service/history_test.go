package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"tqec/internal/circuit"
	"tqec/internal/compress"
	"tqec/internal/tsdb"
)

func failingCompile(ctx context.Context, c *circuit.Circuit, opt compress.Options, seeds []int64, parallel int) (*compress.Result, error) {
	return nil, errors.New("induced failure")
}

// TestQueryRangeEndpoint drives the self-scrape loop end to end: with
// history enabled the daemon retains its own tqecd_* series and serves
// them as frames; with it disabled the endpoint answers 404.
func TestQueryRangeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:         1,
		Runner:          Compiler(instantCompile),
		HistoryInterval: 20 * time.Millisecond,
	})
	st, _ := postJob(t, ts, `{"source":{"sample":"threecnot"}}`)
	waitState(t, ts, st.ID, 10*time.Second)

	// Wait for at least two scrape ticks to land, then query.
	deadline := time.Now().Add(5 * time.Second)
	var resp struct {
		Frames []tsdb.Frame `json:"frames"`
	}
	for {
		code := getJSON(t, ts.URL+"/v1/query_range?query=tqecd_jobs_done_total", &resp)
		if code != http.StatusOK {
			t.Fatalf("query_range: http %d", code)
		}
		if len(resp.Frames) == 1 && len(resp.Frames[0].Points) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no retained history after 5s: %+v", resp.Frames)
		}
		time.Sleep(20 * time.Millisecond)
	}
	f := resp.Frames[0]
	if f.Kind != "counter" || f.Stale {
		t.Fatalf("frame = %+v", f)
	}
	last := f.Points[len(f.Points)-1]
	if last.V < 1 {
		t.Fatalf("tqecd_jobs_done_total history ends at %g, want >= 1", last.V)
	}

	// Prefix selector covers the whole tqecd_* family space.
	code := getJSON(t, ts.URL+"/v1/query_range?query=tqecd_*&step=1", &resp)
	if code != http.StatusOK || len(resp.Frames) < 10 {
		t.Fatalf("prefix query: http %d, %d frames", code, len(resp.Frames))
	}

	// Bad selector still 400s through the service wrapper.
	if code := getJSON(t, ts.URL+"/v1/query_range?query=", nil); code != http.StatusBadRequest {
		t.Fatalf("empty selector: http %d, want 400", code)
	}
}

func TestHistoryDisabledAnswers404(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Runner: Compiler(instantCompile)})
	if code := getJSON(t, ts.URL+"/v1/query_range?query=tqecd_jobs_done_total", nil); code != http.StatusNotFound {
		t.Fatalf("query_range with history disabled: http %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/alerts", nil); code != http.StatusNotFound {
		t.Fatalf("alerts with no SLOs: http %d, want 404", code)
	}
}

// TestSLOFailureStreakFires induces a failure streak and watches one
// objective climb inactive → pending → firing at /v1/alerts, with the
// state mirrored in the tqecd_slo_* metric families.
func TestSLOFailureStreakFires(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:         1,
		Runner:          Compiler(failingCompile),
		CacheEntries:    -1,
		HistoryInterval: 20 * time.Millisecond,
		SLOs: []tsdb.Objective{{
			Name:              "job-success",
			Good:              []string{"tqecd_jobs_done_total", "tqecd_jobs_done_cached_total"},
			Bad:               []string{"tqecd_jobs_failed_total"},
			Target:            0.99,
			FastWindowSeconds: 2,
			SlowWindowSeconds: 4,
			ForSeconds:        0.1,
		}},
	})

	var doc tsdb.AlertsDoc
	if code := getJSON(t, ts.URL+"/v1/alerts", &doc); code != http.StatusOK {
		t.Fatalf("alerts: http %d", code)
	}
	if len(doc.Alerts) != 1 || doc.Alerts[0].State != tsdb.StateInactive {
		t.Fatalf("initial alerts = %+v", doc.Alerts)
	}

	// Every submission fails; the streak must burn through the 1% budget.
	for i := 0; i < 5; i++ {
		st, _ := postJob(t, ts, `{"source":{"sample":"threecnot"}}`)
		waitState(t, ts, st.ID, 10*time.Second)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, ts.URL+"/v1/alerts", &doc)
		if len(doc.Alerts) == 1 && doc.Alerts[0].State == tsdb.StateFiring {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alert never fired: %+v", doc)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if doc.Alerts[0].BurnFast <= 1 {
		t.Fatalf("firing with burn_fast = %g, want > 1", doc.Alerts[0].BurnFast)
	}
	// The transition trail went through pending on the way up.
	sawPending := false
	for _, ev := range doc.Events {
		if ev.To == tsdb.StatePending {
			sawPending = true
		}
	}
	if !sawPending {
		t.Fatalf("no pending transition in events: %+v", doc.Events)
	}

	// Metric mirror on the same registry the scrape loop samples.
	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`tqecd_slo_alert_state{slo="job-success"} 2`,
		"tqecd_slo_alerts_firing 1",
		"# TYPE tqecd_slo_transitions_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// TestJournalDroppedCounter bounds a job's flight-recorder ring so low
// that lifecycle events overflow it, and checks the loss surfaces in the
// tqecd_journal_dropped_events_total counter and the JSON snapshot.
func TestJournalDroppedCounter(t *testing.T) {
	svc, ts := newTestServer(t, Config{
		Workers:       1,
		Runner:        Compiler(instantCompile),
		JournalEvents: 1, // every job emits >1 lifecycle event
	})
	st, _ := postJob(t, ts, `{"source":{"sample":"threecnot"}}`)
	waitState(t, ts, st.ID, 10*time.Second)

	if got := svc.metrics.journalDropped.Value(); got == 0 {
		t.Fatal("journalDropped counter still 0 after ring overflow")
	}
	var snap MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics: http %d", code)
	}
	if snap.Journal.DroppedEvents == 0 {
		t.Fatal("snapshot journal.dropped_events = 0, want > 0")
	}
}
