package fleet

import (
	"context"
	"net/http"
	"testing"
	"time"

	"tqec/internal/circuit"
	"tqec/internal/compress"
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
	f1 := newTestFleet(t, Config{Config: service.Config{Store: st}, DispatchAttempts: 100},
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
	// pipeline. Replayed supervisors retry with backoff until the worker
	// registers, then dispatch normally.
	st2 := openCoordStore(t, dir)
	t.Cleanup(func() { st2.Close() })
	f2 := newTestFleet(t, Config{Config: service.Config{Store: st2}, DispatchAttempts: 100}, []string{"w2"}, nil)

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
