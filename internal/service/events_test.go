package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tqec/internal/circuit"
	"tqec/internal/compress"
	"tqec/internal/journal"
	"tqec/internal/obs"
)

// sseEvent is one parsed text/event-stream frame.
type sseEvent struct {
	ID    string
	Event string
	Data  journal.Event
}

// readSSE consumes a text/event-stream body until EOF (the server closes
// the stream when the recorder closes) and returns the parsed frames.
func readSSE(t *testing.T, body io.Reader) []sseEvent {
	t.Helper()
	var (
		out []sseEvent
		cur sseEvent
	)
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.Event != "" {
				out = append(out, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.ID = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.Data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// getSSE opens the events stream and blocks until the server ends it.
func getSSE(t *testing.T, ts *httptest.Server, id string) ([]sseEvent, *http.Response) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("events: http %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q, want text/event-stream", ct)
	}
	return readSSE(t, resp.Body), resp
}

// TestEventsStreamLive subscribes while the compile runs (the server has
// one worker and the subscription opens before the job can finish) and
// checks the stream delivers every stage transition and terminates with
// the terminal job-state event when the recorder closes.
func TestEventsStreamLive(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	st, code := postJob(t, ts, `{"source":{"sample":"threecnot"},"no_cache":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: http %d", code)
	}
	events, _ := getSSE(t, ts, st.ID) // blocks until the stream closes

	stagesDone := map[string]bool{}
	var states []string
	for i, ev := range events {
		if ev.ID == "" {
			t.Fatalf("event %d missing id field", i)
		}
		switch ev.Event {
		case string(journal.TypeStageDone):
			stagesDone[ev.Data.Stage] = true
		case string(journal.TypeJobState):
			states = append(states, ev.Data.Code)
		}
	}
	for _, stage := range []string{"pdgraph", "simplify", "primal-bridge", "dual-bridge", "place", "route"} {
		if !stagesDone[stage] {
			t.Fatalf("no stage-done event for %s (got %v)", stage, stagesDone)
		}
	}
	if len(states) == 0 || states[len(states)-1] != string(StateDone) {
		t.Fatalf("job-state events = %v, want terminal done", states)
	}
	if final := waitState(t, ts, st.ID, 5*time.Second); final.State != StateDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
}

// TestEventsLateSubscriberReplays opens the stream after the job already
// finished: the ring buffer replays the full history and the closed
// recorder ends the stream immediately.
func TestEventsLateSubscriberReplays(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st, _ := postJob(t, ts, `{"source":{"sample":"threecnot"},"no_cache":true}`)
	if done := waitState(t, ts, st.ID, 30*time.Second); done.State != StateDone {
		t.Fatalf("job ended %s (%s)", done.State, done.Error)
	}

	events, _ := getSSE(t, ts, st.ID)
	if len(events) == 0 {
		t.Fatal("late subscriber got no replay")
	}
	first, last := events[0], events[len(events)-1]
	if first.Event != string(journal.TypeJobState) || first.Data.Code != string(StateQueued) {
		t.Fatalf("replay starts with %s/%s, want job-state/queued", first.Event, first.Data.Code)
	}
	if last.Event != string(journal.TypeJobState) || last.Data.Code != string(StateDone) {
		t.Fatalf("replay ends with %s/%s, want job-state/done", last.Event, last.Data.Code)
	}
	// Sequence numbers are strictly increasing across the replay.
	for i := 1; i < len(events); i++ {
		if events[i].Data.Seq <= events[i-1].Data.Seq {
			t.Fatalf("event %d seq %d after seq %d", i, events[i].Data.Seq, events[i-1].Data.Seq)
		}
	}
}

// TestJournalEndpoint checks the finished-job journal document: the
// waterfall invariant holds, the raw events ride along, and a cache
// replay serves events but no journal (it ran no pipeline).
func TestJournalEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := `{"source":{"sample":"threecnot"},"options":{"mode":"full"}}`
	st, _ := postJob(t, ts, body)
	if done := waitState(t, ts, st.ID, 30*time.Second); done.State != StateDone {
		t.Fatalf("job ended %s (%s)", done.State, done.Error)
	}

	var jr JournalResponse
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/journal", &jr); code != http.StatusOK {
		t.Fatalf("journal: http %d", code)
	}
	if jr.Journal == nil {
		t.Fatal("compiled job has no journal document")
	}
	if err := jr.Journal.CheckWaterfall(); err != nil {
		t.Fatalf("journal waterfall: %v", err)
	}
	if len(jr.Events) == 0 {
		t.Fatal("journal response carries no events")
	}

	// An identical submission answers from the cache: the journal document
	// is absent (no compile ran) but the lifecycle events still exist.
	cached, code := postJob(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("cached submit: http %d", code)
	}
	var cj JournalResponse
	if code := getJSON(t, ts.URL+"/v1/jobs/"+cached.ID+"/journal", &cj); code != http.StatusOK {
		t.Fatalf("cached journal: http %d", code)
	}
	if cj.Journal != nil {
		t.Fatal("cache replay carries a pipeline journal")
	}
	if len(cj.Events) == 0 {
		t.Fatal("cache replay carries no lifecycle events")
	}
}

// TestQueuedMSReportedWhileQueued pins the queued_ms semantics: a job
// still waiting for a worker reports its wait so far, and a started job
// reports the final queue delay separately from run time.
func TestQueuedMSReportedWhileQueued(t *testing.T) {
	svc, _ := newTestServer(t, Config{Workers: 1})
	j := &Job{ID: "jq", state: StateQueued, submitted: time.Now().Add(-50 * time.Millisecond)}
	if st := svc.status(j); st.QueuedMS < 40 {
		t.Fatalf("queued job reports queued_ms=%v, want >=40", st.QueuedMS)
	}
	now := time.Now()
	j2 := &Job{ID: "jr", state: StateDone,
		submitted: now.Add(-300 * time.Millisecond),
		started:   now.Add(-200 * time.Millisecond),
		finished:  now}
	st := svc.status(j2)
	if st.QueuedMS < 90 || st.QueuedMS > 110 {
		t.Fatalf("finished job queued_ms=%v, want ~100", st.QueuedMS)
	}
	if st.RunMS < 190 || st.RunMS > 210 {
		t.Fatalf("finished job run_ms=%v, want ~200", st.RunMS)
	}
}

// TestJobLatencySecondsFamilies checks the split latency histograms reach
// the Prometheus exposition: queue and run time are separate families in
// seconds, not one conflated ms metric.
func TestJobLatencySecondsFamilies(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	st, _ := postJob(t, ts, `{"source":{"sample":"threecnot"},"no_cache":true}`)
	if done := waitState(t, ts, st.ID, 30*time.Second); done.State != StateDone {
		t.Fatalf("job ended %s (%s)", done.State, done.Error)
	}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{
		"tqecd_job_queue_seconds_count 1",
		"tqecd_job_run_seconds_count 1",
		"tqecd_job_queue_seconds_bucket",
		"tqecd_job_run_seconds_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus exposition missing %q:\n%s", want, text)
		}
	}
}

// TestJournalDroppedCounter overflows a job's production-size
// flight-recorder ring through the probe: the compile ends
// DefaultMaxEvents+1 anneal-epoch spans, and the loss surfaces in the
// tqecd_journal_dropped_events_total counter and the JSON snapshot.
func TestJournalDroppedCounter(t *testing.T) {
	overflow := func(ctx context.Context, c *circuit.Circuit, opt compress.Options, seeds []int64, parallel int) (*compress.Result, error) {
		for i := 0; i <= journal.DefaultMaxEvents; i++ {
			sp, _ := obs.StartSpan(ctx, "anneal-epoch")
			sp.End()
		}
		return instantCompile(ctx, c, opt, seeds, parallel)
	}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: Compiler(overflow)})
	st, _ := postJob(t, ts, `{"source":{"sample":"threecnot"}}`)
	if done := waitState(t, ts, st.ID, 10*time.Second); done.State != StateDone {
		t.Fatalf("job ended %s (%s)", done.State, done.Error)
	}
	// Queued, running and done plus DefaultMaxEvents+1 heartbeats: four
	// events more than the ring holds.
	const dropped = 4

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if want := fmt.Sprintf("\ntqecd_journal_dropped_events_total %d\n", dropped); !strings.Contains(string(raw), want) {
		t.Fatalf("exposition missing %q:\n%s", strings.TrimSpace(want), raw)
	}
	var snap MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics: http %d", code)
	}
	if snap.Journal.DroppedEvents != dropped {
		t.Fatalf("snapshot journal.dropped_events = %d, want %d", snap.Journal.DroppedEvents, dropped)
	}
}
