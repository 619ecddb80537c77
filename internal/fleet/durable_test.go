package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"tqec/internal/circuit"
	"tqec/internal/compress"
	"tqec/internal/obs"
	"tqec/internal/service"
	"tqec/internal/store"
)

// openCoordStore opens a coordinator-shaped store (WAL only; result
// payloads live worker-side).
func openCoordStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{NoResults: true})
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	return st
}

// TestCoordinatorWALReplayRedispatches kills a coordinator with one job
// mid-dispatch and one deliberately canceled, then restarts it over the
// same data dir: the interrupted job must re-dispatch (through the
// ordinary supervisor machinery, once a worker registers) and complete
// under its original ID; the canceled job must stay gone.
func TestCoordinatorWALReplayRedispatches(t *testing.T) {
	dir := t.TempDir()
	st := openCoordStore(t, dir)

	// Worker compiles block until canceled, so both jobs are pinned
	// in-flight when the coordinator dies.
	blocking := func(ctx context.Context, c *circuit.Circuit, opt compress.Options, seeds []int64, parallel int) (*compress.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	f1 := newTestFleet(t, Config{Config: service.Config{Store: st}},
		[]string{"w1"}, map[string]service.CompileFunc{"w1": blocking})

	interrupted := f1.submit(t, threecnotBody)
	canceled := f1.submit(t, `{"source":{"sample":"mixed4"},"options":{"mode":"full"}}`)
	waitCondition(t, 10*time.Second, "jobs dispatched", func() bool {
		return f1.getStatus(t, interrupted.ID).State == service.StateRunning &&
			f1.getStatus(t, canceled.ID).State == service.StateRunning
	})

	req, err := http.NewRequest(http.MethodDelete, f1.ts.URL+"/v1/jobs/"+canceled.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := f1.waitJob(t, canceled.ID, 10*time.Second); got.State != service.StateCanceled {
		t.Fatalf("canceled job state = %s, want canceled", got.State)
	}

	// Abrupt death: coordinator first (so the interrupted job ends as a
	// shutdown cancel, not a worker failover), then the worker fleet.
	f1.ts.Close()
	f1.coord.Close()
	for _, w := range f1.workers {
		w.kill()
	}
	if err := st.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}

	// Restart over the same dir with a fresh worker on the real
	// pipeline. The replayed job waits for a worker until this one
	// registers, then dispatches normally.
	st2 := openCoordStore(t, dir)
	t.Cleanup(func() { st2.Close() })
	f2 := newTestFleet(t, Config{Config: service.Config{Store: st2}}, []string{"w2"}, nil)

	final := f2.waitJob(t, interrupted.ID, 30*time.Second)
	if final.State != service.StateDone {
		t.Fatalf("replayed job state = %s (err %q), want done", final.State, final.Error)
	}
	// The replay forwards the WAL's normalized circuit text; the worker
	// must still compute the key the job was submitted under.
	d, _, _ := f2.coord.JobDispatch(interrupted.ID)
	var remote service.JobStatus
	if code := getJSON(t, d.URL+"/v1/jobs/"+d.RemoteID, &remote); code != http.StatusOK {
		t.Fatalf("worker status of replayed job: http %d", code)
	}
	if final.CacheKey != interrupted.CacheKey || remote.CacheKey != interrupted.CacheKey {
		t.Fatalf("replayed keys: coordinator %.12s, worker %.12s, want %.12s", final.CacheKey, remote.CacheKey, interrupted.CacheKey)
	}
	if code := getJSON(t, f2.ts.URL+"/v1/jobs/"+canceled.ID, nil); code != http.StatusNotFound {
		t.Fatalf("canceled job after restart: http %d, want 404", code)
	}

	// New submissions never reuse a pre-restart ID (the next_id
	// high-water mark survives compaction).
	fresh := f2.submit(t, threecnotBody)
	if fresh.ID == interrupted.ID || fresh.ID == canceled.ID {
		t.Fatalf("fresh submission reused pre-restart ID %s", fresh.ID)
	}
	f2.waitJob(t, fresh.ID, 30*time.Second)
}

// TestCoordinatorRestartKeepsRunningWorker restarts a coordinator over
// the same data dir while its worker keeps running, at a 1s heartbeat and
// the shipped retry constants. The worker re-registers only on its next
// heartbeat, a second after the restart; the replayed job waits for it
// and ends done under its original ID and cache key, answered from the
// cache of the worker that finished the interrupted compile.
func TestCoordinatorRestartKeepsRunningWorker(t *testing.T) {
	dir := t.TempDir()
	// The worker's agent knows one coordinator URL; the restarted
	// coordinator takes over behind it.
	var front atomic.Value // http.Handler
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		front.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	start := func() (*Coordinator, *store.Store) {
		st := openCoordStore(t, dir)
		c := NewCoordinator(context.Background(), Config{
			Config:            service.Config{Store: st},
			Logger:            obs.NopLogger(),
			HeartbeatInterval: time.Second,
		})
		// Both Close calls are idempotent; the restart closes c1 early.
		t.Cleanup(func() {
			c.Close()
			st.Close()
		})
		front.Store(c.Handler())
		return c, st
	}
	c1, st1 := start()
	f := &testFleet{coord: c1, ts: ts, workers: map[string]*testWorker{}}
	t.Cleanup(func() {
		for _, w := range f.workers {
			w.agent.Stop()
			w.ts.Close()
			w.svc.Close()
		}
	})

	// The worker's compile holds until the coordinator has restarted.
	release := make(chan struct{})
	held := func(ctx context.Context, c *circuit.Circuit, opt compress.Options, seeds []int64, parallel int) (*compress.Result, error) {
		select {
		case <-release:
			return instantCompile(ctx, c, opt, seeds, parallel)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f.startWorker(t, "w1", held, nil)
	f.waitWorkersAlive(t, 1)
	submitted := f.submit(t, threecnotBody)
	waitCondition(t, 10*time.Second, "job to run on the worker", func() bool {
		d, _, _ := c1.JobDispatch(submitted.ID)
		return d.RemoteID != "" && f.workers["w1"].svc.Stats().Running == 1
	})

	// Restart right after a heartbeat, so the worker learns of the restart
	// only from its next one, a heartbeat later.
	beats := c1.metrics.heartbeats.Value()
	waitCondition(t, 10*time.Second, "a heartbeat", func() bool { return c1.metrics.heartbeats.Value() > beats })
	c1.Close()
	if err := st1.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}
	f.coord, _ = start()
	close(release)

	final := f.waitJob(t, submitted.ID, 30*time.Second)
	if final.State != service.StateDone {
		t.Fatalf("replayed job = %s, retries %d (err %q); want done", final.State, final.Retries, final.Error)
	}
	if final.CacheKey != submitted.CacheKey || final.Worker != "w1" || !final.Cached {
		t.Fatalf("replayed job key %.12s on %q, cached %t; want key %.12s on w1 from its cache",
			final.CacheKey, final.Worker, final.Cached, submitted.CacheKey)
	}
	if final.Retries != 1 {
		t.Fatalf("replayed job retries = %d, want 1 wait for the worker", final.Retries)
	}
}

// TestCoordinatorStoreEndpoint checks GET /v1/store on the coordinator:
// WAL stats with a store, 404 without.
func TestCoordinatorStoreEndpoint(t *testing.T) {
	plain := newTestFleet(t, Config{}, nil, nil)
	if code := getJSON(t, plain.ts.URL+"/v1/store", nil); code != http.StatusNotFound {
		t.Fatalf("store endpoint without store: http %d, want 404", code)
	}

	dir := t.TempDir()
	st := openCoordStore(t, dir)
	t.Cleanup(func() { st.Close() })
	f := newTestFleet(t, Config{Config: service.Config{Store: st}}, nil, nil)
	var stats store.Stats
	if code := getJSON(t, f.ts.URL+"/v1/store", &stats); code != http.StatusOK {
		t.Fatalf("store endpoint: http %d", code)
	}
	if stats.Dir != dir {
		t.Fatalf("store stats dir = %q, want %q", stats.Dir, dir)
	}
	if stats.Results != nil {
		t.Fatal("coordinator store unexpectedly reports a results tier")
	}
}
