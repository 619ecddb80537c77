package service

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"tqec/internal/circuit"
	"tqec/internal/compress"
)

// Tests in this file substitute the compile with deterministic fakes so
// the cancel-after-partial-success race, drain aborts, and job retention
// can be exercised without timing-sensitive real compiles.

// partialResult fabricates a best-of outcome in which the last seed was
// interrupted by the context while the earlier seeds succeeded.
func partialResult(name string, seeds []int64, cause error) *compress.Result {
	return &compress.Result{
		Name:         name,
		Mode:         compress.Full,
		Volume:       7,
		PlacedVolume: 7,
		SeedsTried:   len(seeds),
		SeedErrors:   []compress.SeedError{{Seed: seeds[len(seeds)-1], Err: cause}},
	}
}

func TestCancelAfterPartialSuccessIsCanceledAndUncached(t *testing.T) {
	// One seed "succeeds", then the DELETE's cancel interrupts the rest:
	// the sweep returns a surviving best with err==nil and the context
	// error only in SeedErrors.
	svc, ts := newTestServer(t, Config{Workers: 1, Runner: Compiler(func(ctx context.Context, c *circuit.Circuit, opt compress.Options, seeds []int64, parallel int) (*compress.Result, error) {
		<-ctx.Done()
		return partialResult(c.Name, seeds, ctx.Err()), nil
	})})

	body := `{"source":{"sample":"threecnot"},"options":{"seeds":[1,2]}}`
	st, code := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: http %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var cur JobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &cur)
		if cur.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started (state %s)", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, body := del(t, ts.URL+"/v1/jobs/"+st.ID); code != http.StatusOK {
		t.Fatalf("cancel: http %d (%s)", code, body)
	}

	final := waitState(t, ts, st.ID, 10*time.Second)
	if final.State != StateCanceled {
		t.Fatalf("state = %s (err %q), want canceled — a DELETE'd partial sweep must not report done", final.State, final.Error)
	}
	if n := svc.cache.Len(); n != 0 {
		t.Fatalf("cache holds %d entries; a partial best-of result must never be cached", n)
	}
	// An identical resubmission must recompile, not hit the cache.
	if _, code := postJob(t, ts, body); code != http.StatusAccepted {
		t.Fatalf("resubmit after canceled partial: http %d, want 202 (fresh compile)", code)
	}
}

func TestDeadlinePartialSuccessIsDoneButUncached(t *testing.T) {
	// The deadline fired mid-sweep but a seed survived: the job owner gets
	// the best-effort result, the cache must not.
	svc, ts := newTestServer(t, Config{Workers: 1, Runner: Compiler(func(ctx context.Context, c *circuit.Circuit, opt compress.Options, seeds []int64, parallel int) (*compress.Result, error) {
		return partialResult(c.Name, seeds, fmt.Errorf("compile: %w", context.DeadlineExceeded)), nil
	})})

	body := `{"source":{"sample":"threecnot"},"options":{"seeds":[1,2]}}`
	st, code := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: http %d", code)
	}
	final := waitState(t, ts, st.ID, 10*time.Second)
	if final.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", final.State, final.Error)
	}
	if n := svc.cache.Len(); n != 0 {
		t.Fatalf("cache holds %d entries; a deadline-truncated sweep must never be cached", n)
	}
	if _, code := postJob(t, ts, body); code != http.StatusAccepted {
		t.Fatalf("resubmit after partial: http %d, want 202 (fresh compile)", code)
	}
}

func TestDrainAbortReportsCanceledNotFailed(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, Runner: Compiler(func(ctx context.Context, c *circuit.Circuit, opt compress.Options, seeds []int64, parallel int) (*compress.Result, error) {
		<-ctx.Done()
		return nil, fmt.Errorf("compress: %w", ctx.Err())
	})})

	st, code := postJob(t, ts, `{"source":{"sample":"threecnot"},"no_cache":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: http %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var cur JobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &cur)
		if cur.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started (state %s)", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// An already-expired drain context forces Shutdown to abort in-flight
	// work via the root cancel.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := svc.Shutdown(expired); err == nil {
		t.Fatal("shutdown with expired context should report the drain error")
	}

	var final JobStatus
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &final); code != http.StatusOK {
		t.Fatalf("status: http %d", code)
	}
	if final.State != StateCanceled {
		t.Fatalf("drain-aborted job state = %s (err %q), want canceled", final.State, final.Error)
	}
}

func TestFinishedJobRetentionPrunesOldest(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, MaxFinishedJobs: 2, Runner: Compiler(func(ctx context.Context, c *circuit.Circuit, opt compress.Options, seeds []int64, parallel int) (*compress.Result, error) {
		return &compress.Result{Name: c.Name, Mode: opt.Mode, Volume: 6, PlacedVolume: 6}, nil
	})})

	var ids []string
	for i := 0; i < 3; i++ {
		st, code := postJob(t, ts, `{"source":{"sample":"threecnot"},"no_cache":true}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: http %d", i, code)
		}
		if final := waitState(t, ts, st.ID, 10*time.Second); final.State != StateDone {
			t.Fatalf("job %d: %s (%s)", i, final.State, final.Error)
		}
		ids = append(ids, st.ID)
	}

	if code := getJSON(t, ts.URL+"/v1/jobs/"+ids[0], nil); code != http.StatusNotFound {
		t.Fatalf("oldest finished job: http %d, want 404 after retention pruning", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+ids[2], nil); code != http.StatusOK {
		t.Fatalf("newest finished job: http %d, want 200", code)
	}

	// Terminal jobs release their parsed circuit even while retained.
	j, ok := svc.jobByID(ids[2])
	if !ok {
		t.Fatal("retained job vanished")
	}
	svc.mu.Lock()
	circRetained := j.circ != nil
	svc.mu.Unlock()
	if circRetained {
		t.Fatal("terminal job still holds its parsed circuit")
	}
}
