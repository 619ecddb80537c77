package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tqec/internal/obs"
)

func contextWithTimeout(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// newTestServer spins up a quiet service plus an httptest frontend.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	svc := New(context.Background(), cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (JobStatus, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("submit response %q: %v", raw, err)
		}
	}
	return st, resp.StatusCode
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("response %q: %v", raw, err)
		}
	}
	return resp.StatusCode
}

func del(t *testing.T, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

// waitState polls until the job reaches a terminal state or the deadline
// passes, returning the last observed status.
func waitState(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var st JobStatus
	for time.Now().Before(deadline) {
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("status %s: http %d", id, code)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s still %s after %s", id, st.State, timeout)
	return st
}

func TestSubmitCompileAndResult(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st, code := postJob(t, ts, `{"source":{"sample":"threecnot"},"options":{"mode":"full","drc":true}}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: http %d", code)
	}
	st = waitState(t, ts, st.ID, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("job state = %s (err %q), want done", st.State, st.Error)
	}

	var payload ResultPayload
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result", &payload); code != http.StatusOK {
		t.Fatalf("result: http %d", code)
	}
	if payload.Report.PlacedVolume != 6 {
		t.Fatalf("placed volume = %d, want 6 (paper Fig. 1(e))", payload.Report.PlacedVolume)
	}
	if payload.DRC == nil || !payload.DRC.Clean() {
		t.Fatalf("expected a clean attached DRC report, got %+v", payload.DRC)
	}
	if payload.CacheKey == "" {
		t.Fatal("payload missing cache key")
	}
}

func TestCacheHitOnIdenticalSubmission(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	body := `{"source":{"sample":"threecnot"},"options":{"mode":"full","seeds":[1,2]}}`

	first, _ := postJob(t, ts, body)
	firstDone := waitState(t, ts, first.ID, 30*time.Second)
	if firstDone.State != StateDone {
		t.Fatalf("first job: %s (%s)", firstDone.State, firstDone.Error)
	}
	if firstDone.Cached {
		t.Fatal("first submission must not be a cache hit")
	}

	second, code := postJob(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("cached submit: http %d, want 200", code)
	}
	if !second.Cached || second.State != StateDone {
		t.Fatalf("second submission: cached=%t state=%s, want instant cached done", second.Cached, second.State)
	}
	if second.CacheKey != first.CacheKey {
		t.Fatalf("cache keys differ: %s vs %s", first.CacheKey, second.CacheKey)
	}
	if second.RunMS != 0 {
		t.Fatalf("cache-hit RunMS = %.1f, want 0 (no compile ran)", second.RunMS)
	}

	var m MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: http %d", code)
	}
	if m.Cache.Hits != 1 || m.Cache.Misses != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", m.Cache.Hits, m.Cache.Misses)
	}
	// One pipeline execution total: the compile histogram saw exactly one
	// job even though two completed.
	if m.Compile.Count != 1 {
		t.Fatalf("compile histogram count = %d, want 1 (second job must not re-run)", m.Compile.Count)
	}
	// done and done_cached are disjoint: one compile ran, one replayed.
	if m.Jobs.Done != 1 {
		t.Fatalf("jobs done = %d, want 1 (cache replays count only in done_cached)", m.Jobs.Done)
	}
	if m.Jobs.DoneCached != 1 {
		t.Fatalf("jobs done_cached = %d, want 1", m.Jobs.DoneCached)
	}
	if len(m.Stages) == 0 {
		t.Fatal("expected per-stage histograms after a compile")
	}
	_ = svc
}

// doneProbe is a slog handler that reports, when a job's done line is
// logged, how many results the memory tier holds. runJob logs that line
// under the server lock, just before the job reads done.
type doneProbe struct {
	slog.Handler
	svc    atomic.Pointer[Server]
	cached chan int
}

func (p *doneProbe) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "done" {
		p.cached <- p.svc.Load().cache.Len()
	}
	return nil
}

// TestDoneJobIsAlreadyCached: a compiled result enters the memory tier
// before its job reads done, so a client that sees done and resubmits at
// once is answered from the cache.
func TestDoneJobIsAlreadyCached(t *testing.T) {
	probe := &doneProbe{Handler: slog.NewTextHandler(io.Discard, nil), cached: make(chan int, 1)}
	svc, ts := newTestServer(t, Config{Workers: 1, Logger: slog.New(probe)})
	probe.svc.Store(svc)
	job, code := postJob(t, ts, `{"source":{"sample":"threecnot"},"options":{"mode":"full"}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: http %d", code)
	}
	if st := waitState(t, ts, job.ID, 30*time.Second); st.State != StateDone {
		t.Fatalf("job state = %s (err %q), want done", st.State, st.Error)
	}
	if n := <-probe.cached; n != 1 {
		t.Fatalf("memory tier held %d results when the job was logged done, want 1", n)
	}
}

func TestResultBeforeDoneConflicts(t *testing.T) {
	// A single worker busy on a slow compile leaves the second job queued,
	// so its result endpoint must 409.
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	slow, _ := postJob(t, ts, `{"source":{"bench":"rd84_142"},"options":{"effort":"high","skip_routing":true}}`)
	queued, _ := postJob(t, ts, `{"source":{"sample":"toffoli3"}}`)

	if code := getJSON(t, ts.URL+"/v1/jobs/"+queued.ID+"/result", nil); code != http.StatusConflict {
		t.Fatalf("result of queued job: http %d, want 409", code)
	}
	// Drain: cancel both so cleanup is fast.
	del(t, ts.URL+"/v1/jobs/"+queued.ID)
	del(t, ts.URL+"/v1/jobs/"+slow.ID)
}

func TestUnknownJobIs404(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if code := getJSON(t, ts.URL+"/v1/jobs/j999999", nil); code != http.StatusNotFound {
		t.Fatalf("status: http %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/j999999/result", nil); code != http.StatusNotFound {
		t.Fatalf("result: http %d, want 404", code)
	}
	if code, _ := del(t, ts.URL+"/v1/jobs/j999999"); code != http.StatusNotFound {
		t.Fatalf("cancel: http %d, want 404", code)
	}
}

func TestCancelFinishedJobConflicts(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	st, _ := postJob(t, ts, `{"source":{"sample":"threecnot"}}`)
	st = waitState(t, ts, st.ID, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("job: %s", st.State)
	}
	if code, body := del(t, ts.URL+"/v1/jobs/"+st.ID); code != http.StatusConflict {
		t.Fatalf("cancel done job: http %d (%s), want 409", code, body)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []string{
		`{"options":{}}`,                                      // no source
		`{"source":{"sample":"nope"}}`,                        // unknown sample
		`{"source":{"sample":"threecnot","text":"qubits 1"}}`, // two sources
		`{"source":{"sample":"threecnot"},"options":{"mode":"bogus"}}`,
		`{"source":{"sample":"threecnot"},"options":{"effort":"bogus"}}`,
		`{"source":{"bench":"nope"}}`,
		`not json`,
	}
	for _, body := range cases {
		if _, code := postJob(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("submit %q: http %d, want 400", body, code)
		}
	}
}

// TestSubmitBodyTooLarge: a body over the submit cap is refused with 413
// before any job is registered, so nothing reaches the WAL. The body is
// an otherwise valid submission padded through its name.
func TestSubmitBodyTooLarge(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, Runner: Compiler(instantCompile)})
	prefix := `{"source":{"sample":"threecnot"},"name":"`
	suffix := `"}`
	body := prefix + strings.Repeat("x", maxBodyBytes+1-len(prefix)-len(suffix)) + suffix
	if _, code := postJob(t, ts, body); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("submit of %d bytes: http %d, want 413", len(body), code)
	}
	if got := svc.metrics.jobsSubmitted.Value(); got != 0 {
		t.Fatalf("tqecd_jobs_submitted_total = %d after a refused body, want 0", got)
	}
	var list JobList
	if getJSON(t, ts.URL+"/v1/jobs", &list); list.Total != 0 {
		t.Fatalf("refused body registered %d jobs", list.Total)
	}
}

func TestDrainingRejectsSubmits(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	if err := svc.Shutdown(contextWithTimeout(t, 10*time.Second)); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, code := postJob(t, ts, `{"source":{"sample":"threecnot"}}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: http %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: http %d, want 503", code)
	}
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2})
	st, _ := postJob(t, ts, `{"source":{"sample":"mixed4"},"options":{"seeds":[1,2,3]}}`)
	if err := svc.Shutdown(contextWithTimeout(t, 60*time.Second)); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The job must have finished (drained), not been abandoned.
	j, ok := svc.jobByID(st.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	svc.mu.Lock()
	state := j.state
	svc.mu.Unlock()
	if state != StateDone {
		t.Fatalf("after drain, job state = %s, want done", state)
	}
}

func TestHealthzAndMetricsShape(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var h HealthStatus
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz: %d %+v", code, h)
	}
	if h.Version == "" {
		t.Fatal("healthz missing version")
	}
	if h.UptimeMS < 0 {
		t.Fatalf("healthz uptime_ms = %f, want >= 0", h.UptimeMS)
	}
	if h.QueueDepth != 0 {
		t.Fatalf("healthz queue_depth = %d, want 0 on an idle server", h.QueueDepth)
	}
	var m MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: http %d", code)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%+v", m) // snapshot must be serializable both ways
}

// TestMetricsPrometheusExposition drives a compile and then scrapes
// /metrics the way Prometheus would: Accept: text/plain must switch the
// endpoint from JSON to the text exposition format, with well-formed
// TYPE headers and le-cumulative bucket series.
func TestMetricsPrometheusExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	st, _ := postJob(t, ts, `{"source":{"sample":"threecnot"}}`)
	if st = waitState(t, ts, st.ID, 30*time.Second); st.State != StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
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
	body := string(raw)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q, want text/plain", ct)
	}
	for _, want := range []string{
		"# TYPE tqecd_jobs_submitted_total counter",
		"# TYPE tqecd_jobs_running gauge",
		"# TYPE tqecd_compile_ms histogram",
		"# TYPE tqecd_stage_ms histogram",
		"tqecd_jobs_submitted_total 1",
		"tqecd_jobs_done_total 1",
		`tqecd_compile_ms_bucket{le="+Inf"} 1`,
		"tqecd_compile_ms_count 1",
		`tqecd_stage_ms_count{stage="place"} 1`,
		"tqecd_anneal_moves_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Cumulative bucket monotonicity for the compile histogram.
	prev := int64(-1)
	buckets := 0
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "tqecd_compile_ms_bucket{") {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v); err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket series not cumulative at %q", line)
		}
		prev = v
		buckets++
	}
	if buckets == 0 {
		t.Fatal("no compile_ms bucket lines")
	}

	// Without the Accept header the endpoint still answers JSON.
	var m MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK || m.Jobs.Submitted != 1 {
		t.Fatalf("JSON metrics: code %d, submitted %d", code, m.Jobs.Submitted)
	}
	if m.Pipeline.AnnealMoves < 0 || m.Pipeline.DualBridges < 0 {
		t.Fatal("pipeline counters missing from JSON snapshot")
	}
}

// TestDoneCountersDisjoint pins the jobs.done / jobs.done_cached
// relationship: a completed submission increments exactly one of them,
// so done + done_cached equals the number of successfully answered
// submissions.
func TestDoneCountersDisjoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := `{"source":{"sample":"threecnot"}}`
	first, _ := postJob(t, ts, body)
	if st := waitState(t, ts, first.ID, 30*time.Second); st.State != StateDone {
		t.Fatalf("first job: %s", st.State)
	}
	for i := 0; i < 2; i++ { // two cache replays
		st, code := postJob(t, ts, body)
		if code != http.StatusOK || !st.Cached {
			t.Fatalf("replay %d: http %d cached=%t", i, code, st.Cached)
		}
	}
	var m MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: http %d", code)
	}
	if m.Jobs.Done != 1 || m.Jobs.DoneCached != 2 {
		t.Fatalf("done/done_cached = %d/%d, want 1/2 (disjoint)", m.Jobs.Done, m.Jobs.DoneCached)
	}
	if m.Jobs.Done+m.Jobs.DoneCached != m.Jobs.Submitted {
		t.Fatalf("done %d + done_cached %d != submitted %d",
			m.Jobs.Done, m.Jobs.DoneCached, m.Jobs.Submitted)
	}
}

// TestTraceEndpoint submits a traced job and fetches its span tree in
// both formats.
func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	// An untraced job has no trace to serve.
	plain, _ := postJob(t, ts, `{"source":{"sample":"threecnot"}}`)
	waitState(t, ts, plain.ID, 30*time.Second)
	if code := getJSON(t, ts.URL+"/v1/jobs/"+plain.ID+"/trace", nil); code != http.StatusNotFound {
		t.Fatalf("trace of untraced job: http %d, want 404", code)
	}

	// A traced job must compile (no cache fast path) and record spans.
	traced, code := postJob(t, ts, `{"source":{"sample":"threecnot"},"trace":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("traced submit: http %d, want 202 (the cache must not answer traced jobs)", code)
	}
	if st := waitState(t, ts, traced.ID, 30*time.Second); st.State != StateDone {
		t.Fatalf("traced job: %s (%s)", st.State, st.Error)
	}

	var tree struct {
		Name     string `json:"name"`
		Children []struct {
			Name string `json:"name"`
		} `json:"children"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+traced.ID+"/trace", &tree); code != http.StatusOK {
		t.Fatalf("trace: http %d", code)
	}
	if tree.Name != "job:"+traced.ID {
		t.Fatalf("trace root = %q, want job:%s", tree.Name, traced.ID)
	}
	if len(tree.Children) == 0 {
		t.Fatal("trace has no spans")
	}
	stages := map[string]bool{}
	for _, c := range tree.Children {
		stages[c.Name] = true
	}
	// CompileBest wraps each restart in a seed span.
	if !stages["seed-1"] {
		t.Fatalf("trace missing seed span: %v", stages)
	}

	var events []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+traced.ID+"/trace?format=chrome", &events); code != http.StatusOK {
		t.Fatalf("chrome trace: http %d", code)
	}
	seen := map[string]bool{}
	for _, ev := range events {
		if ev.Ph != "X" {
			t.Fatalf("chrome event %q phase %q, want X", ev.Name, ev.Ph)
		}
		seen[ev.Name] = true
	}
	for _, want := range []string{"pdgraph", "place", "route"} {
		if !seen[want] {
			t.Fatalf("chrome trace missing stage %q (got %v)", want, seen)
		}
	}
}
