package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tqec/internal/circuit"
	"tqec/internal/compress"
	"tqec/internal/obs"
	"tqec/internal/store"
)

// Tests in this file exercise the durable storage integration: WAL
// replay across restarts, warm result-store hits, and the invariants
// that partial sweeps and deliberately canceled jobs never come back.
// "Restart" means closing the Server and the Store and opening fresh
// ones over the same data directory, which is exactly what a process
// restart does.

func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	return st
}

// durableServer is newTestServer without the automatic Cleanup teardown:
// restart tests close the server and store on their own schedule.
func durableServer(t *testing.T, st *store.Store, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Store = st
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	svc := New(context.Background(), cfg)
	ts := httptest.NewServer(svc.Handler())
	return svc, ts
}

// blockUntilCanceled parks the compile until the context dies, i.e. a
// job that is still running whenever the server is torn down.
func blockUntilCanceled(ctx context.Context, c *circuit.Circuit, opt compress.Options, seeds []int64, parallel int) (*compress.Result, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func waitRunning(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st); code == http.StatusOK && st.State == StateRunning {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

// TestWALReplayRequeuesInterruptedJob kills a server while a job runs
// and checks the restarted server re-queues it under its original ID
// and completes it for real.
func TestWALReplayRequeuesInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	svc, ts := durableServer(t, st, Config{Workers: 1, Runner: Compiler(blockUntilCanceled)})

	job, code := postJob(t, ts, `{"source":{"sample":"threecnot"},"options":{"mode":"full"}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: http %d", code)
	}
	waitRunning(t, ts, job.ID)

	// Kill: Close cancels the root context mid-compile, so the job dies
	// as a shutdown cancel — the kind that must NOT get a terminal
	// record.
	ts.Close()
	svc.Close()
	if err := st.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}

	st2 := openTestStore(t, dir)
	svc2, ts2 := durableServer(t, st2, Config{Workers: 1})
	defer func() { ts2.Close(); svc2.Close(); st2.Close() }()

	// The job exists under its original ID and runs to completion on the
	// real pipeline this time.
	final := waitState(t, ts2, job.ID, 30*time.Second)
	if final.State != StateDone {
		t.Fatalf("replayed job state = %s (err %q), want done", final.State, final.Error)
	}
	if final.Cached {
		t.Fatal("replayed job served from cache, but nothing was ever stored")
	}

	// The replayed completion writes through to the result store, so it
	// survives yet another restart. The write lands just after the job
	// reads done (disk latency stays off the job table), so wait for it.
	deadline := time.Now().Add(10 * time.Second)
	for st2.Results.Stats().Writes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("completed replayed job never reached the result store")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWarmCacheHitSurvivesRestart completes a job, restarts, and
// resubmits the identical request: the restarted server must answer
// done_cached from the result store without compiling anything.
func TestWarmCacheHitSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	body := `{"source":{"sample":"threecnot"},"options":{"mode":"full","drc":true}}`

	st := openTestStore(t, dir)
	svc, ts := durableServer(t, st, Config{Workers: 1})
	job, code := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: http %d", code)
	}
	first := waitState(t, ts, job.ID, 30*time.Second)
	if first.State != StateDone {
		t.Fatalf("first run state = %s (err %q)", first.State, first.Error)
	}
	ts.Close()
	svc.Close()
	if err := st.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}

	// The restarted server gets a compile that reports any invocation:
	// a warm hit must never reach it.
	compiled := make(chan string, 1)
	failCompile := func(ctx context.Context, c *circuit.Circuit, opt compress.Options, seeds []int64, parallel int) (*compress.Result, error) {
		select {
		case compiled <- c.Name:
		default:
		}
		return nil, errors.New("compile ran on a warm key")
	}
	st2 := openTestStore(t, dir)
	svc2, ts2 := durableServer(t, st2, Config{Workers: 1, Runner: Compiler(failCompile)})
	defer func() { ts2.Close(); svc2.Close(); st2.Close() }()

	warm, code := postJob(t, ts2, body)
	if code != http.StatusOK {
		t.Fatalf("warm submit: http %d, want 200 (cache fast path)", code)
	}
	if warm.State != StateDone || !warm.Cached {
		t.Fatalf("warm submit: state=%s cached=%t, want done/cached", warm.State, warm.Cached)
	}
	if warm.RunMS != 0 {
		t.Fatalf("warm submit RunMS = %v, want 0 (no compile ran)", warm.RunMS)
	}
	if warm.ID == job.ID {
		t.Fatalf("warm job reused the pre-restart ID %s; the next_id high-water mark was lost", warm.ID)
	}
	select {
	case name := <-compiled:
		t.Fatalf("warm submission compiled %q instead of hitting the store", name)
	default:
	}

	// And the payload round-tripped intact through the disk envelope.
	var payload ResultPayload
	if code := getJSON(t, ts2.URL+"/v1/jobs/"+warm.ID+"/result", &payload); code != http.StatusOK {
		t.Fatalf("warm result: http %d", code)
	}
	if payload.Name == "" || payload.Report.Volume <= 0 {
		t.Fatalf("warm payload damaged: name=%q volume=%d", payload.Name, payload.Report.Volume)
	}
}

// TestPartialSweepNeverWrittenToStore cancels a multi-seed sweep after
// one seed "succeeded": the partial result must stay out of the durable
// store, and the deliberately canceled job must not replay.
func TestPartialSweepNeverWrittenToStore(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	svc, ts := durableServer(t, st, Config{Workers: 1, Runner: Compiler(func(ctx context.Context, c *circuit.Circuit, opt compress.Options, seeds []int64, parallel int) (*compress.Result, error) {
		<-ctx.Done()
		return partialResult(c.Name, seeds, ctx.Err()), nil
	})})

	job, code := postJob(t, ts, `{"source":{"sample":"threecnot"},"options":{"seeds":[1,2]}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: http %d", code)
	}
	waitRunning(t, ts, job.ID)
	if code, body := del(t, ts.URL+"/v1/jobs/"+job.ID); code != http.StatusOK {
		t.Fatalf("cancel: http %d (%s)", code, body)
	}
	final := waitState(t, ts, job.ID, 10*time.Second)
	if final.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", final.State)
	}
	if w := st.Results.Stats().Writes; w != 0 {
		t.Fatalf("result store saw %d writes from a partial sweep, want 0", w)
	}
	ts.Close()
	svc.Close()
	if err := st.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}

	// Restart: the cancel was a client decision, durably recorded, so
	// the job is gone — not re-queued, not even remembered.
	st2 := openTestStore(t, dir)
	svc2, ts2 := durableServer(t, st2, Config{Workers: 1})
	defer func() { ts2.Close(); svc2.Close(); st2.Close() }()
	if code := getJSON(t, ts2.URL+"/v1/jobs/"+job.ID, nil); code != http.StatusNotFound {
		t.Fatalf("canceled job after restart: http %d, want 404", code)
	}
	if n := st2.Results.Len(); n != 0 {
		t.Fatalf("result store holds %d entries after restart, want 0", n)
	}
}

// TestCanceledQueuedJobNotReplayed deletes a job while it waits in the
// queue; the restart must replay only the interrupted running job.
func TestCanceledQueuedJobNotReplayed(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	svc, ts := durableServer(t, st, Config{Workers: 1, Runner: Compiler(blockUntilCanceled)})

	running, code := postJob(t, ts, `{"source":{"sample":"threecnot"},"options":{"mode":"full"}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit running: http %d", code)
	}
	waitRunning(t, ts, running.ID)
	queued, code := postJob(t, ts, `{"source":{"sample":"mixed4"},"options":{"mode":"full"}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit queued: http %d", code)
	}
	if code, body := del(t, ts.URL+"/v1/jobs/"+queued.ID); code != http.StatusOK {
		t.Fatalf("cancel queued: http %d (%s)", code, body)
	}

	ts.Close()
	svc.Close()
	if err := st.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}

	st2 := openTestStore(t, dir)
	svc2, ts2 := durableServer(t, st2, Config{Workers: 1})
	defer func() { ts2.Close(); svc2.Close(); st2.Close() }()

	if code := getJSON(t, ts2.URL+"/v1/jobs/"+queued.ID, nil); code != http.StatusNotFound {
		t.Fatalf("canceled queued job after restart: http %d, want 404", code)
	}
	final := waitState(t, ts2, running.ID, 30*time.Second)
	if final.State != StateDone {
		t.Fatalf("interrupted job state = %s (err %q), want done", final.State, final.Error)
	}
}

// TestCacheBytesBoundEvicts checks the in-memory tier honors the byte
// bound: inserting past it evicts the least recently used payload.
func TestCacheBytesBoundEvicts(t *testing.T) {
	m := newMetrics()
	mkPayload := func(name string) *ResultPayload {
		return &ResultPayload{Name: name, Report: compress.Report{Name: name, Volume: 42}}
	}
	raw, err := json.Marshal(mkPayload("a"))
	if err != nil {
		t.Fatal(err)
	}
	// Room for one payload plus slack, never two.
	rc := newResultCache(10, int64(len(raw))+8, nil, obs.NopLogger(), m)

	key := func(b byte) string { return strings.Repeat(fmt.Sprintf("%02x", b), 32) }
	rc.Put(key(1), mkPayload("a"))
	rc.Put(key(2), mkPayload("b"))
	if n := rc.Len(); n != 1 {
		t.Fatalf("cache holds %d entries over the byte bound, want 1", n)
	}
	if _, ok := rc.Get(key(1)); ok {
		t.Fatal("LRU victim still cached after byte-bound eviction")
	}
	if p, ok := rc.Get(key(2)); !ok || p.Name != "b" {
		t.Fatal("most recent entry evicted instead of the LRU victim")
	}
}

// TestStoreEndpoint checks GET /v1/store: 404 without a data dir, live
// stats with one.
func TestStoreEndpoint(t *testing.T) {
	_, plain := newTestServer(t, Config{Workers: 1})
	if code := getJSON(t, plain.URL+"/v1/store", nil); code != http.StatusNotFound {
		t.Fatalf("store endpoint without store: http %d, want 404", code)
	}

	dir := t.TempDir()
	st := openTestStore(t, dir)
	svc, ts := durableServer(t, st, Config{Workers: 1})
	defer func() { ts.Close(); svc.Close(); st.Close() }()
	var stats store.Stats
	if code := getJSON(t, ts.URL+"/v1/store", &stats); code != http.StatusOK {
		t.Fatalf("store endpoint: http %d", code)
	}
	if stats.Dir != dir {
		t.Fatalf("store stats dir = %q, want %q", stats.Dir, dir)
	}
	if stats.Results == nil {
		t.Fatal("store stats missing results section")
	}
}

// TestReplaySkipsRecordsWithoutCircuit replays a data dir holding a
// submitted record in another format — the shape a coordinator of the
// previous binary logged, the wire request under "req" and an f-prefixed
// ID — beside a current one: the old job is unrecoverable and skipped,
// the current one replays.
func TestReplaySkipsRecordsWithoutCircuit(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	old := map[string]any{"name": "threecnot", "key": "k", "req": map[string]any{"source": map[string]any{"sample": "threecnot"}}}
	if err := st.WAL.Append(walTypeSubmitted, "f000001", time.Now().UnixMilli(), old); err != nil {
		t.Fatal(err)
	}
	svc, ts := durableServer(t, st, Config{Workers: 1, Runner: Compiler(blockUntilCanceled)})
	job, code := postJob(t, ts, `{"source":{"sample":"threecnot"}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: http %d", code)
	}
	ts.Close()
	svc.Close()
	if err := st.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}

	st2 := openTestStore(t, dir)
	svc2, ts2 := durableServer(t, st2, Config{Workers: 1, Runner: Compiler(instantCompile)})
	defer func() { ts2.Close(); svc2.Close(); st2.Close() }()
	if code := getJSON(t, ts2.URL+"/v1/jobs/f000001", nil); code != http.StatusNotFound {
		t.Fatalf("old-format job after replay: http %d, want 404", code)
	}
	if final := waitState(t, ts2, job.ID, 10*time.Second); final.State != StateDone {
		t.Fatalf("current-format job replayed as %s (err %q), want done", final.State, final.Error)
	}
}
