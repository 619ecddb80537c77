package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tqec/internal/circuit"
	"tqec/internal/compress"
	"tqec/internal/journal"
	"tqec/internal/obs"
	"tqec/internal/revlib"
	"tqec/internal/service"
)

const threecnotBody = `{"source":{"sample":"threecnot"},"options":{"mode":"full"}}`

// testWorker is one fleet member under test: an embedded compile
// service, its HTTP frontend, and the membership agent.
type testWorker struct {
	id    string
	svc   *service.Server
	ts    *httptest.Server
	agent *Agent
}

// kill simulates an abrupt worker death: connections drop, the process
// stops heartbeating, nothing drains gracefully.
func (w *testWorker) kill() {
	w.agent.Stop()
	w.ts.CloseClientConnections()
	w.ts.Close()
	w.svc.Close()
}

// testFleet wires a coordinator and workers over httptest.
type testFleet struct {
	coord   *Coordinator
	ts      *httptest.Server
	workers map[string]*testWorker
}

// newTestFleet starts a coordinator and one worker per ID; compile maps a
// worker ID to a fake compile (absent: the real pipeline).
func newTestFleet(t *testing.T, cfg Config, workerIDs []string, compile map[string]service.CompileFunc) *testFleet {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 25 * time.Millisecond
	}
	if cfg.SuspectAfter == 0 {
		cfg.SuspectAfter = 150 * time.Millisecond
	}
	if cfg.DeadAfter == 0 {
		cfg.DeadAfter = 400 * time.Millisecond
	}
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 20 * time.Millisecond
	}
	if cfg.Backoff.Base == 0 {
		cfg.Backoff = Backoff{Base: 10 * time.Millisecond, Max: 50 * time.Millisecond, Jitter: -1}
	}
	coord := NewCoordinator(context.Background(), cfg)
	cts := httptest.NewServer(coord.Handler())
	f := &testFleet{coord: coord, ts: cts, workers: map[string]*testWorker{}}
	t.Cleanup(func() {
		for _, w := range f.workers {
			if w.agent != nil {
				w.agent.Stop()
			}
		}
		cts.Close()
		coord.Close()
		for _, w := range f.workers {
			w.ts.Close()
			w.svc.Close()
		}
	})

	for _, id := range workerIDs {
		f.startWorker(t, id, service.Config{
			// Enough slots and queue to hold every job of
			// TestFleetDispatchNotCappedAtGOMAXPROCS and
			// TestFleetBurstIsNotCapped on one worker.
			Workers:    runtime.GOMAXPROCS(0) + 2,
			QueueDepth: 256,
			Runner:     service.Compiler(compile[id]),
		})
	}
	f.waitWorkersAlive(t, len(workerIDs))
	return f
}

// startWorker starts one worker service with cfg and registers it.
func (f *testFleet) startWorker(t *testing.T, id string, cfg service.Config) {
	t.Helper()
	cfg.Logger = obs.NopLogger()
	svc := service.New(context.Background(), cfg)
	wts := httptest.NewServer(svc.Handler())
	agent, err := StartAgent(context.Background(), AgentConfig{
		CoordinatorURL:    f.ts.URL,
		WorkerID:          id,
		AdvertiseURL:      wts.URL,
		Stats:             func() (int, int) { s := svc.Stats(); return s.Running, s.Queued },
		HeartbeatInterval: f.coord.cfg.HeartbeatInterval,
		Backoff:           Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond, Jitter: -1},
		Logger:            obs.NopLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	f.workers[id] = &testWorker{id: id, svc: svc, ts: wts, agent: agent}
}

// waitWorkersAlive blocks until the coordinator judges n workers alive.
func (f *testFleet) waitWorkersAlive(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		alive := 0
		for _, w := range f.coord.reg.snapshot() {
			if w.State == WorkerAlive {
				alive++
			}
		}
		if alive == n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("coordinator never saw %d alive workers: %+v", n, f.coord.reg.snapshot())
}

func (f *testFleet) submit(t *testing.T, body string) service.JobStatus {
	t.Helper()
	resp, err := http.Post(f.ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: http %d: %s", resp.StatusCode, raw)
	}
	var st service.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("submit response %q: %v", raw, err)
	}
	return st
}

func (f *testFleet) getStatus(t *testing.T, id string) service.JobStatus {
	t.Helper()
	var st service.JobStatus
	if code := getJSON(t, f.ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK {
		t.Fatalf("status %s: http %d", id, code)
	}
	return st
}

// waitJob polls the coordinator until the job is terminal.
func (f *testFleet) waitJob(t *testing.T, id string, timeout time.Duration) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var st service.JobStatus
	for time.Now().Before(deadline) {
		st = f.getStatus(t, id)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s still %s after %s", id, st.State, timeout)
	return st
}

// waitCondition polls fn until it returns true.
func waitCondition(t *testing.T, timeout time.Duration, what string, fn func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if fn() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
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

// blockingCompile parks until the job context ends — the stand-in for a
// long compile on a worker that is about to die.
func blockingCompile() service.CompileFunc {
	return func(ctx context.Context, c *circuit.Circuit, opt compress.Options, seeds []int64, parallel int) (*compress.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
}

// threecnotKey is the cache key the fleet routes threecnotBody on: the
// sample at the submit defaults (full mode, fast effort, seed 1).
func threecnotKey(t *testing.T) string {
	t.Helper()
	c, err := revlib.ParseString(revlib.Samples["threecnot"])
	if err != nil {
		t.Fatal(err)
	}
	key, err := service.CacheKey(c, compress.Options{Mode: compress.Full, Effort: compress.EffortFast}, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// pickLosingID returns a worker ID that loses the rendezvous for key
// against winnerID, so tests can force which worker owns a job.
func pickLosingID(t *testing.T, winnerID, key string) string {
	t.Helper()
	winning := rendezvousScore(winnerID, key)
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("loser-%d", i)
		if rendezvousScore(id, key) < winning {
			return id
		}
	}
	t.Fatal("could not find a losing worker ID")
	return ""
}

func TestFleetComputesAndAffinityCacheHits(t *testing.T) {
	f := newTestFleet(t, Config{}, []string{"w-a", "w-b"}, nil)

	st := f.submit(t, threecnotBody)
	final := f.waitJob(t, st.ID, 60*time.Second)
	if final.State != service.StateDone {
		t.Fatalf("job = %s (err %q), want done", final.State, final.Error)
	}
	if final.Worker == "" {
		t.Fatal("done job reports no owning worker")
	}
	if final.Cached {
		t.Fatal("first compile reported cached")
	}

	var payload service.ResultPayload
	if code := getJSON(t, f.ts.URL+"/v1/jobs/"+st.ID+"/result", &payload); code != http.StatusOK {
		t.Fatalf("result: http %d", code)
	}
	if payload.Report.PlacedVolume != 6 {
		t.Fatalf("placed volume = %d, want 6 (paper Fig. 1(e))", payload.Report.PlacedVolume)
	}

	// Identical resubmission: rendezvous routing must land it on the same
	// worker, whose content-addressed cache answers instantly.
	st2 := f.submit(t, threecnotBody)
	final2 := f.waitJob(t, st2.ID, 30*time.Second)
	if final2.State != service.StateDone {
		t.Fatalf("resubmit = %s (err %q), want done", final2.State, final2.Error)
	}
	if final2.Worker != final.Worker {
		t.Fatalf("resubmit routed to %s, want affinity target %s", final2.Worker, final.Worker)
	}
	if !final2.Cached {
		t.Fatal("resubmit not served from the worker cache")
	}
	if final2.RunMS != 0 {
		t.Fatalf("cached resubmit RunMS = %v, want 0", final2.RunMS)
	}

	// The coordinator's own job families count coordinator jobs: one
	// compiled on a worker, one answered from a worker's cache.
	var doc service.MetricsSnapshot
	if code := getJSON(t, f.ts.URL+"/metrics", &doc); code != http.StatusOK {
		t.Fatalf("metrics: http %d", code)
	}
	if doc.Jobs.Done != 1 || doc.Jobs.DoneCached != 1 {
		t.Fatalf("coordinator jobs done/done_cached = %d/%d, want 1/1", doc.Jobs.Done, doc.Jobs.DoneCached)
	}
	if got := f.coord.metrics.affinityRouted.Value(); got < 2 {
		t.Fatalf("affinity_routed = %d, want >= 2", got)
	}
	// Per-worker numbers stay on each worker's own /metrics: one real
	// compile and one cache replay, both on the affinity target.
	var wdoc service.MetricsSnapshot
	if code := getJSON(t, f.workers[final.Worker].ts.URL+"/metrics", &wdoc); code != http.StatusOK {
		t.Fatalf("worker metrics: http %d", code)
	}
	if wdoc.Jobs.Done != 1 || wdoc.Jobs.DoneCached != 1 {
		t.Fatalf("worker done/done_cached = %d/%d, want 1/1", wdoc.Jobs.Done, wdoc.Jobs.DoneCached)
	}

	// The list endpoint is the service's, newest first, with placement.
	var list service.JobList
	if code := getJSON(t, f.ts.URL+"/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("list: http %d", code)
	}
	if list.Total != 2 || len(list.Jobs) != 2 || list.Jobs[0].ID != st2.ID || list.Jobs[0].Worker != final.Worker {
		t.Fatalf("list = %+v, want 2 jobs newest (%s) first on %s", list, st2.ID, final.Worker)
	}

	// Prometheus exposition carries the fleet families beside the
	// coordinator's job families under one scrape.
	req, _ := http.NewRequest(http.MethodGet, f.ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, family := range []string{
		"tqecd_fleet_workers_alive 2",
		"tqecd_jobs_done_total 1",
		"tqecd_jobs_done_cached_total 1",
	} {
		if !strings.Contains(string(text), family) {
			t.Errorf("prometheus exposition missing %q", family)
		}
	}
}

func TestFleetFailoverMidJobCompletes(t *testing.T) {
	key := threecnotKey(t)
	// Force the doomed worker to win the rendezvous for the key so the
	// job deterministically starts on it.
	blockerID := "blocker"
	runnerID := pickLosingID(t, blockerID, key)
	f := newTestFleet(t, Config{DispatchAttempts: 4},
		[]string{blockerID, runnerID},
		map[string]service.CompileFunc{blockerID: blockingCompile()})

	st := f.submit(t, threecnotBody)
	waitCondition(t, 10*time.Second, "job to start on the doomed worker", func() bool {
		got := f.getStatus(t, st.ID)
		return got.Worker == blockerID && got.State == service.StateRunning
	})

	f.workers[blockerID].kill()

	final := f.waitJob(t, st.ID, 60*time.Second)
	if final.State != service.StateDone {
		t.Fatalf("job after worker death = %s (err %q), want done via failover", final.State, final.Error)
	}
	if final.Worker != runnerID {
		t.Fatalf("job finished on %s, want failover target %s", final.Worker, runnerID)
	}
	if final.Retries < 1 {
		t.Fatalf("retries = %d, want >= 1", final.Retries)
	}

	// The re-dispatched compile is the real pipeline: the answer must be
	// correct, not merely present.
	var payload service.ResultPayload
	if code := getJSON(t, f.ts.URL+"/v1/jobs/"+st.ID+"/result", &payload); code != http.StatusOK {
		t.Fatalf("result: http %d", code)
	}
	if payload.Report.PlacedVolume != 6 {
		t.Fatalf("failover placed volume = %d, want 6", payload.Report.PlacedVolume)
	}

	// The dispatch journal tells the whole story: assigned to the doomed
	// worker, retried, assigned to the survivor.
	var jr service.JournalResponse
	if code := getJSON(t, f.ts.URL+"/v1/jobs/"+st.ID+"/journal", &jr); code != http.StatusOK {
		t.Fatalf("journal: http %d", code)
	}
	var assigned []string
	retried := false
	for _, ev := range jr.Events {
		switch ev.Code {
		case journal.JobStateWorkerAssigned:
			assigned = append(assigned, ev.Message)
		case journal.JobStateDispatchRetried:
			retried = true
		}
	}
	if len(assigned) < 2 || assigned[0] != blockerID || assigned[len(assigned)-1] != runnerID {
		t.Fatalf("worker-assigned trail = %v, want %s then %s", assigned, blockerID, runnerID)
	}
	if !retried {
		t.Fatalf("journal has no dispatch-retried event: %+v", jr.Events)
	}

	if got := f.coord.metrics.failovers.Value(); got < 1 {
		t.Fatalf("failovers_total = %d, want >= 1", got)
	}
	waitCondition(t, 10*time.Second, "dead worker to leave the alive set", func() bool {
		return f.coord.metrics.workersAlive.Value() == 1
	})
}

func TestFleetCanceledJobIsNotRedispatched(t *testing.T) {
	key := threecnotKey(t)
	blockerID := "blocker"
	runnerID := pickLosingID(t, blockerID, key)
	// A long retry backoff holds the supervisor between failure detection
	// and re-dispatch, so the cancel deterministically lands first.
	f := newTestFleet(t, Config{Backoff: Backoff{Base: 2 * time.Second, Max: 2 * time.Second, Jitter: -1}},
		[]string{blockerID, runnerID},
		map[string]service.CompileFunc{blockerID: blockingCompile()})

	st := f.submit(t, threecnotBody)
	waitCondition(t, 10*time.Second, "job to start on the doomed worker", func() bool {
		got := f.getStatus(t, st.ID)
		return got.Worker == blockerID && got.State == service.StateRunning
	})

	f.workers[blockerID].kill()
	// Wait until the supervisor has noticed the death and entered its
	// retry backoff, then cancel.
	waitCondition(t, 10*time.Second, "supervisor to notice the dead worker", func() bool {
		return f.coord.metrics.failovers.Value() >= 1
	})
	req, _ := http.NewRequest(http.MethodDelete, f.ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: http %d", resp.StatusCode)
	}

	final := f.waitJob(t, st.ID, 10*time.Second)
	if final.State != service.StateCanceled {
		t.Fatalf("job = %s (err %q), want canceled", final.State, final.Error)
	}
	// The cancel gate must have stopped the failover: one dispatch ever,
	// and the surviving worker never saw the job.
	if got := f.coord.metrics.dispatches.Value(); got != 1 {
		t.Fatalf("dispatches_total = %d, want 1 (no re-dispatch after cancel)", got)
	}
	var list service.JobList
	if code := getJSON(t, f.workers[runnerID].ts.URL+"/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("runner list: http %d", code)
	}
	if list.Total != 0 {
		t.Fatalf("surviving worker saw %d jobs, want 0", list.Total)
	}
}

func TestAgentReRegistersAfterCoordinatorRestart(t *testing.T) {
	var handler atomic.Value // http.Handler
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer ts.Close()

	cfg := Config{
		HeartbeatInterval: 20 * time.Millisecond,
		Logger:            obs.NopLogger(),
	}
	c1 := NewCoordinator(context.Background(), cfg)
	defer c1.Close()
	handler.Store(c1.Handler())

	agent, err := StartAgent(context.Background(), AgentConfig{
		CoordinatorURL:    ts.URL,
		WorkerID:          "w-1",
		AdvertiseURL:      "http://127.0.0.1:1",
		HeartbeatInterval: 20 * time.Millisecond,
		Backoff:           Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond, Jitter: -1},
		Logger:            obs.NopLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Stop()

	waitCondition(t, 10*time.Second, "initial registration", func() bool {
		return len(c1.reg.snapshot()) == 1
	})

	// "Restart" the coordinator: a fresh instance with an empty registry
	// takes over the same URL. The next heartbeat gets a 404 and the
	// agent must re-register on its own.
	c2 := NewCoordinator(context.Background(), cfg)
	defer c2.Close()
	handler.Store(c2.Handler())

	waitCondition(t, 10*time.Second, "re-registration with the restarted coordinator", func() bool {
		snap := c2.reg.snapshot()
		return len(snap) == 1 && snap[0].ID == "w-1" && snap[0].State == WorkerAlive
	})
}

// post sends a JSON body to url and returns the status code and
// response body.
func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// TestMembershipBodyTooLarge: register and heartbeat bodies are a few
// short fields, so the coordinator answers 413 to a large one instead of
// decoding it.
func TestMembershipBodyTooLarge(t *testing.T) {
	f := newTestFleet(t, Config{}, nil, nil)
	prefix := `{"id":"w-big","url":"http://127.0.0.1:1/`
	suffix := `"}`
	body := prefix + strings.Repeat("a", maxMembershipBodyBytes+1-len(prefix)-len(suffix)) + suffix
	for _, path := range []string{"/fleet/v1/register", "/fleet/v1/heartbeat"} {
		if code, raw := post(t, f.ts.URL+path, body); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with a %d-byte body: http %d (%s), want 413", path, len(body), code, raw)
		}
	}
	if n := len(f.coord.reg.snapshot()); n != 0 {
		t.Fatalf("oversized register added %d workers", n)
	}
}

// TestRollingUpgradeLegacyHeartbeat: a heartbeat from an agent that
// still stamps sent_unix_us is accepted, not rejected, and keeps its
// worker alive. (TestSubmitTraceparentLink in internal/service pins the
// same for a submit that still carries a traceparent header.)
func TestRollingUpgradeLegacyHeartbeat(t *testing.T) {
	f := newTestFleet(t, Config{}, nil, nil)
	if code, raw := post(t, f.ts.URL+"/fleet/v1/register", `{"id":"w-old","url":"http://127.0.0.1:1"}`); code != http.StatusOK {
		t.Fatalf("register: http %d (%s)", code, raw)
	}
	f.coord.reg.markSuspect("w-old")
	beat := fmt.Sprintf(`{"id":"w-old","running":2,"queued":5,"sent_unix_us":%d}`, time.Now().UnixMicro())
	if code, raw := post(t, f.ts.URL+"/fleet/v1/heartbeat", beat); code != http.StatusOK {
		t.Fatalf("heartbeat with sent_unix_us: http %d (%s), want 200", code, raw)
	}
	snap := f.coord.reg.snapshot()
	if len(snap) != 1 || snap[0].State != WorkerAlive || snap[0].Running != 2 || snap[0].Queued != 5 {
		t.Fatalf("workers after a legacy heartbeat = %+v, want w-old alive with running=2 queued=5", snap)
	}
}

// TestFleetDispatchNotCappedAtGOMAXPROCS checks that the coordinator's
// dispatch slots are not its CPU count: more blocking jobs than
// GOMAXPROCS all run on the workers at once.
func TestFleetDispatchNotCappedAtGOMAXPROCS(t *testing.T) {
	n := runtime.GOMAXPROCS(0) + 2
	f := newTestFleet(t, Config{}, []string{"w-a", "w-b"},
		map[string]service.CompileFunc{"w-a": blockingCompile(), "w-b": blockingCompile()})
	for i := 0; i < n; i++ {
		f.submit(t, fmt.Sprintf(`{"source":{"sample":"threecnot"},"options":{"seeds":[%d]}}`, i+1))
	}
	waitCondition(t, 10*time.Second, fmt.Sprintf("%d jobs running on workers", n), func() bool {
		running := 0
		for _, w := range f.workers {
			running += w.svc.Stats().Running
		}
		return running == n
	})
}

// TestFleetCacheKeysAgree submits every source kind through the
// coordinator: the worker must compute the key the coordinator routed on,
// and a resubmission is answered from the worker's cache, never the
// coordinator's (it keeps none).
func TestFleetCacheKeysAgree(t *testing.T) {
	f := newTestFleet(t, Config{}, []string{"w-a"}, map[string]service.CompileFunc{"w-a": instantCompile})
	toffoli, err := revlib.ParseString(revlib.Samples["toffoli3"])
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := circuit.WriteText(&text, toffoli); err != nil {
		t.Fatal(err)
	}
	sources := map[string]service.Source{
		"sample": {Sample: "threecnot"},
		"bench":  {Bench: "4gt10-v1_81", GenSeed: 2},
		"text":   {Text: text.String()},
		"real":   {Real: revlib.Samples["mixed4"]},
	}
	for kind, src := range sources {
		body, err := json.Marshal(service.SubmitRequest{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		for round, wantCached := range []bool{false, true} {
			st := f.waitJob(t, f.submit(t, string(body)).ID, 30*time.Second)
			if st.State != service.StateDone || st.Cached != wantCached {
				t.Fatalf("%s round %d: %s cached=%t (err %q), want done cached=%t", kind, round, st.State, st.Cached, st.Error, wantCached)
			}
			d, _, _ := f.coord.JobDispatch(st.ID)
			var remote service.JobStatus
			if code := getJSON(t, d.URL+"/v1/jobs/"+d.RemoteID, &remote); code != http.StatusOK {
				t.Fatalf("%s: worker status: http %d", kind, code)
			}
			if remote.CacheKey != st.CacheKey {
				t.Fatalf("%s: worker key %.12s, coordinator key %.12s", kind, remote.CacheKey, st.CacheKey)
			}
		}
	}
	if got, want := f.coord.metrics.dispatches.Value(), int64(2*len(sources)); got != want {
		t.Fatalf("dispatches = %d, want %d: every submission reaches a worker", got, want)
	}
}

// instantCompile is a fake compile that succeeds at once.
func instantCompile(ctx context.Context, c *circuit.Circuit, opt compress.Options, seeds []int64, parallel int) (*compress.Result, error) {
	return &compress.Result{Name: c.Name, Mode: opt.Mode, Volume: 6, PlacedVolume: 6, SeedsTried: len(seeds)}, nil
}

// TestFleetBurstIsNotCapped submits more long jobs than twice the
// service's default queue depth (64): a coordinator admits every one and
// dispatches it at once, leaving load bounds to the workers.
func TestFleetBurstIsNotCapped(t *testing.T) {
	const n = 150
	f := newTestFleet(t, Config{}, []string{"w-a", "w-b"},
		map[string]service.CompileFunc{"w-a": blockingCompile(), "w-b": blockingCompile()})
	for i := 0; i < n; i++ {
		f.submit(t, fmt.Sprintf(`{"source":{"sample":"threecnot"},"options":{"seeds":[%d]}}`, i+1))
	}
	waitCondition(t, 10*time.Second, fmt.Sprintf("%d jobs held by workers", n), func() bool {
		held := 0
		for _, w := range f.workers {
			s := w.svc.Stats()
			held += s.Running + s.Queued
		}
		return held == n
	})
}

// TestFleetDeadlineIsTheWorkers checks that the job's deadline runs on the
// worker, over the compile alone: a sweep that hits it after one seed
// succeeded is done with its best-effort result, as on a standalone
// daemon.
func TestFleetDeadlineIsTheWorkers(t *testing.T) {
	partialAtDeadline := func(ctx context.Context, c *circuit.Circuit, opt compress.Options, seeds []int64, parallel int) (*compress.Result, error) {
		<-ctx.Done()
		return &compress.Result{
			Name: c.Name, Mode: opt.Mode, Volume: 7, PlacedVolume: 7, SeedsTried: len(seeds),
			SeedErrors: []compress.SeedError{{Seed: seeds[len(seeds)-1], Err: ctx.Err()}},
		}, nil
	}
	f := newTestFleet(t, Config{}, []string{"w-a"}, map[string]service.CompileFunc{"w-a": partialAtDeadline})
	st := f.submit(t, `{"source":{"sample":"threecnot"},"options":{"seeds":[1,2]},"timeout_ms":200}`)
	final := f.waitJob(t, st.ID, 10*time.Second)
	if final.State != service.StateDone {
		t.Fatalf("job = %s (err %q), want done with the partial sweep", final.State, final.Error)
	}
}

// TestFleetCloseLeavesWorkerJobRunning checks that coordinator shutdown
// abandons a dispatched job without canceling it on the worker, so the
// worker finishes and caches it for the replay after a restart.
func TestFleetCloseLeavesWorkerJobRunning(t *testing.T) {
	f := newTestFleet(t, Config{}, []string{"w-a"}, map[string]service.CompileFunc{"w-a": blockingCompile()})
	st := f.submit(t, threecnotBody)
	var d service.Dispatch
	waitCondition(t, 10*time.Second, "job to run on the worker", func() bool {
		// The worker can start the job before the coordinator records
		// the dispatch, so wait for the record too.
		d, _, _ = f.coord.JobDispatch(st.ID)
		return d.URL != "" && f.getStatus(t, st.ID).State == service.StateRunning && f.workers["w-a"].svc.Stats().Running == 1
	})
	f.coord.Close()
	var remote service.JobStatus
	if code := getJSON(t, d.URL+"/v1/jobs/"+d.RemoteID, &remote); code != http.StatusOK {
		t.Fatalf("worker status: http %d", code)
	}
	if remote.State != service.StateRunning {
		t.Fatalf("worker job = %s (err %q) after coordinator Close, want running", remote.State, remote.Error)
	}
}

// TestFleetWorkerCanceledJobFailsOver checks that a job the worker drops
// on its own (here a DELETE sent to the worker directly) runs elsewhere:
// the coordinator job was never canceled.
func TestFleetWorkerCanceledJobFailsOver(t *testing.T) {
	key := threecnotKey(t)
	blockerID := "blocker"
	runnerID := pickLosingID(t, blockerID, key)
	f := newTestFleet(t, Config{}, []string{blockerID, runnerID},
		map[string]service.CompileFunc{blockerID: blockingCompile(), runnerID: instantCompile})
	st := f.submit(t, threecnotBody)
	waitCondition(t, 10*time.Second, "job to start on the blocking worker", func() bool {
		got := f.getStatus(t, st.ID)
		return got.Worker == blockerID && got.State == service.StateRunning
	})
	d, _, _ := f.coord.JobDispatch(st.ID)
	if _, err := f.coord.workerClient(d.URL).Cancel(context.Background(), d.RemoteID); err != nil {
		t.Fatal(err)
	}
	final := f.waitJob(t, st.ID, 10*time.Second)
	if final.State != service.StateDone || final.Worker != runnerID || final.Retries < 1 {
		t.Fatalf("job = %s on %s, retries %d (err %q); want done on %s after a failover",
			final.State, final.Worker, final.Retries, final.Error, runnerID)
	}
}
