package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"tqec/internal/obs"
	"tqec/internal/service"
)

// Run is the coordinator's service.Runner: it routes the job, dispatches
// it to a worker, tracks it to a terminal state and — on worker failure —
// fails over to a different worker, within the bounded attempt budget.
// Only a worker failure spends an attempt: with no alive worker the job
// waits for one (see awaitWorker). The service owns everything around
// it; in particular a DELETE or shutdown ends ctx, which stops the
// dispatch (no re-dispatch after a cancel). The job's deadline is the
// worker's: the forwarded request carries timeout_ms, and the worker
// applies it to the compile alone.
func (c *Coordinator) Run(ctx context.Context, j *service.Job) (service.Outcome, error) {
	// The dispatch spans are the job's dispatch record: the trace keeps
	// them, and the job's journal turns a route decision into
	// worker-assigned and a retry or failover into dispatch-retried. Every
	// span call is a no-op for a job nobody observes.
	var d service.Dispatch
	exclude := "" // the worker the previous attempt failed on
	for attempt := 0; ; {
		if attempt >= dispatchAttempts {
			return service.Outcome{}, fmt.Errorf("dispatch failed: no worker completed the job in %d attempts", attempt)
		}
		rs, _ := obs.StartSpan(ctx, "route-decision")
		alive := c.reg.alive()
		w, affinity, ok := route(alive, j.Key, exclude, maxImbalance)
		if !ok && len(alive) > 0 {
			// Only the excluded worker is alive. Its failure took it out
			// of the alive set, so it has beaten or registered since: a
			// fleet of one recovers instead of waiting out the bound.
			w, affinity, ok = route(alive, j.Key, "", maxImbalance)
		}
		if !ok {
			rs.SetAttr("outcome", "no-alive-workers")
			rs.End()
			if err := c.retry(ctx, j, &d, attempt, "retry", "no alive workers", c.awaitWorker); err != nil {
				return service.Outcome{}, err
			}
			continue
		}
		rs.SetAttr("worker", w.ID)
		rs.SetAttr("affinity", affinity)
		rs.SetAttr("attempt", attempt+1)
		rs.End()

		// The dispatch span covers the whole attempt — submit, tracking,
		// and result fetch — so the worker's grafted pipeline tree nests
		// inside it. Each attempt gets its own span; the stitcher grafts
		// under the last one, the attempt whose worker actually finished.
		ds, _ := obs.StartSpan(ctx, "dispatch")
		ds.SetAttr("worker", w.ID)
		out, err := c.attempt(ctx, j, &d, w, affinity)
		if err != nil {
			ds.SetAttr("error", err.Error())
		}
		ds.End()
		var fail *workerFailure
		if !errors.As(err, &fail) {
			return out, err
		}
		exclude = w.ID
		pause := func(ctx context.Context) error { return backoff(ctx, attempt) }
		if fail.dispatched {
			c.reg.markDead(w.ID)
			err = c.retry(ctx, j, &d, attempt, "failover", w.ID+": "+fail.Error(), pause)
		} else {
			c.reg.markSuspect(w.ID)
			err = c.retry(ctx, j, &d, attempt, "retry", w.ID+": "+fail.Error(), pause)
		}
		if err != nil {
			return service.Outcome{}, err
		}
		attempt++
	}
}

// workerFailure is an attempt that failed because of its worker, not the
// job: the job goes to another worker. dispatched reports that the
// worker had accepted it, so the failure is a mid-job failover.
type workerFailure struct {
	err        error
	dispatched bool
}

func (f *workerFailure) Error() string { return f.err.Error() }

// attempt runs one dispatch round on worker w: submit, track, fetch the
// result. Errors that are the worker's fault come back as *workerFailure;
// any other error ends the job.
func (c *Coordinator) attempt(ctx context.Context, j *service.Job, d *service.Dispatch, w WorkerInfo, affinity bool) (service.Outcome, error) {
	// Bound the submit call itself; routing has already paid for
	// liveness, so an unresponsive worker should fail fast.
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	st, err := c.workerClient(w.URL).Submit(sctx, j.Request())
	cancel()
	var se *service.StatusError
	switch {
	case errors.As(err, &se) && se.Code == http.StatusBadRequest:
		// The worker understood and rejected the submission; another
		// worker would reject it identically.
		return service.Outcome{}, fmt.Errorf("worker rejected job: %s", se.Message)
	case err != nil && ctx.Err() != nil:
		return service.Outcome{}, ctx.Err()
	case err != nil:
		return service.Outcome{}, &workerFailure{err: err}
	}

	d.Worker, d.URL, d.RemoteID = w.ID, w.URL, st.ID
	c.Server.SetDispatch(j, *d)
	c.metrics.dispatches.Inc()
	if affinity {
		c.metrics.affinityRouted.Inc()
	} else {
		c.metrics.affinityFallback.Inc()
	}
	c.log(ctx, j, "dispatched", "worker", w.ID, "remote_id", st.ID, "affinity", affinity, "remote_state", string(st.State))

	c.reg.addInflight(w.ID, 1)
	defer c.reg.addInflight(w.ID, -1)
	final, err := c.track(ctx, w, st)
	if err == nil && final.State == service.StateDone {
		var p *service.ResultPayload
		if p, err = c.fetchResult(ctx, w, final.ID); err == nil {
			return service.Outcome{Payload: p, Cached: final.Cached}, nil
		}
		err = fmt.Errorf("fetch result: %w", err)
	}
	switch {
	case err == nil && final.State == service.StateCanceled:
		// Nobody canceled the coordinator job, so the worker dropped it
		// (its own drain, or a DELETE sent to it directly): run it
		// elsewhere.
		return service.Outcome{}, &workerFailure{err: errors.New("job canceled on worker"), dispatched: true}
	case err == nil:
		// The worker ran the job and it failed; another worker would
		// compute the same outcome.
		if final.Error != "" {
			return service.Outcome{}, errors.New(final.Error)
		}
		return service.Outcome{}, fmt.Errorf("job %s on worker %s", final.State, w.ID)
	case ctx.Err() != nil:
		// Forward a client's cancel. On shutdown the worker keeps the job:
		// it finishes and caches the result, which the WAL replay after a
		// restart then reaches as a cache hit.
		if errors.Is(context.Cause(ctx), service.ErrCanceled) {
			c.cancelRemote(ctx, j, w, st.ID)
		}
		return service.Outcome{}, ctx.Err()
	default:
		return service.Outcome{}, &workerFailure{err: err, dispatched: true}
	}
}

// retry records one retry — a "retry" before any worker took the job,
// or while none was alive, a "failover" after one died with it — and
// runs wait, the backoff before the next attempt or the wait for a
// worker, under its span.
func (c *Coordinator) retry(ctx context.Context, j *service.Job, d *service.Dispatch, attempt int, kind, reason string, wait func(context.Context) error) error {
	if kind == "failover" {
		c.metrics.failovers.Inc()
	} else {
		c.metrics.dispatchRetries.Inc()
	}
	d.Retries++
	c.Server.SetDispatch(j, *d)
	c.log(ctx, j, "dispatch-"+kind, "reason", reason, "attempt", attempt+1)
	sp, _ := obs.StartSpan(ctx, kind)
	sp.SetAttr("attempt", attempt+1)
	sp.SetAttr("reason", reason)
	defer sp.End()
	return wait(ctx)
}

// awaitWorker waits until a worker is alive: it checks the registry at
// the poll cadence, returns at once when ctx ends (a DELETE or
// shutdown), and fails the job only after the dead threshold passes with
// no alive worker. A restarted coordinator's replayed jobs wait here
// until their workers re-register on their next heartbeat.
func (c *Coordinator) awaitWorker(ctx context.Context) error {
	bound := time.NewTimer(c.cfg.deadAfter())
	defer bound.Stop()
	t := time.NewTicker(c.cfg.pollInterval())
	defer t.Stop()
	for len(c.reg.alive()) == 0 {
		select {
		case <-t.C:
		case <-bound.C:
			return fmt.Errorf("dispatch failed: no worker alive within %s", c.cfg.deadAfter())
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// track polls the owning worker until the remote job is terminal or the
// worker is judged failed (consecutive poll errors, a 404 meaning the
// worker restarted and lost the job, or a monitor death verdict). A
// submit answered from the worker's cache is terminal already.
func (c *Coordinator) track(ctx context.Context, w WorkerInfo, st service.JobStatus) (service.JobStatus, error) {
	cl := c.workerClient(w.URL)
	failures := 0
	t := time.NewTicker(c.cfg.pollInterval())
	defer t.Stop()
	for !st.State.Terminal() {
		select {
		case <-t.C:
		case <-ctx.Done():
			return st, ctx.Err()
		}
		pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		next, err := cl.Status(pctx, st.ID)
		cancel()
		switch {
		case err == nil:
			failures = 0
			st = next
		case service.IsStatusCode(err, http.StatusNotFound):
			// The worker restarted (or pruned the job): it will never
			// finish it, so fail over immediately.
			return st, fmt.Errorf("worker lost job: %w", err)
		case ctx.Err() != nil:
			return st, ctx.Err()
		default:
			failures++
			if failures >= pollFailures {
				return st, fmt.Errorf("worker unreachable after %d polls: %w", failures, err)
			}
		}
		if c.reg.state(w.ID) == WorkerDead {
			return st, errors.New("worker declared dead by heartbeat monitor")
		}
	}
	return st, nil
}

// fetchResult copies a done job's payload from the worker, so the answer
// survives the worker dying or pruning the job later.
func (c *Coordinator) fetchResult(ctx context.Context, w WorkerInfo, remoteID string) (*service.ResultPayload, error) {
	cl := c.workerClient(w.URL)
	for try := 0; ; try++ {
		fctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		p, err := cl.Result(fctx, remoteID)
		cancel()
		if err == nil || try == 2 {
			return p, err
		}
		if serr := backoff(ctx, try); serr != nil {
			return nil, err
		}
	}
}

// cancelRemote forwards a client's cancel to the job's worker,
// best-effort: the worker may already be gone, and no re-dispatch
// follows either way.
func (c *Coordinator) cancelRemote(ctx context.Context, j *service.Job, w WorkerInfo, remoteID string) {
	cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
	defer cancel()
	if _, err := c.workerClient(w.URL).Cancel(cctx, remoteID); err != nil {
		c.log(ctx, j, "cancel-forward-failed", "worker", w.ID, "err", err.Error())
	}
}

// log emits one structured coordinator log line for a job, carrying the
// submitter's request ID so coordinator and worker lines correlate.
func (c *Coordinator) log(ctx context.Context, j *service.Job, event string, attrs ...any) {
	base := []any{"job", j.ID, "name", j.Name}
	if rid := obs.RequestIDFrom(ctx); rid != "" {
		base = append(base, "req_id", rid)
	}
	c.cfg.Logger.InfoContext(ctx, event, append(base, attrs...)...)
}
