package fleet

import (
	"context"
	"sync"
	"time"

	"tqec/internal/obs"
	"tqec/internal/tsdb"
)

// retainWorkerHistory runs after each of the coordinator's self-scrapes:
// it scrapes every non-dead worker's Prometheus text exposition and
// retains every sample as a per-worker series tagged worker="<id>", so a
// worker's families keep the names, kinds and labels they have on the
// worker itself. A worker that dies simply stops producing new samples,
// so its series trail the store's write cursor and come back from
// /v1/query_range marked stale — the dead-worker gap marking.
func (c *Coordinator) retainWorkerHistory(db *tsdb.DB, t time.Time) {
	workers := c.reg.snapshotIf(func(w *workerEntry) bool { return w.state != WorkerDead })
	scrapes := make([][]obs.Sample, len(workers))
	ctx, cancel := context.WithTimeout(c.ctx, c.cfg.HistoryInterval)
	defer cancel()
	var wg sync.WaitGroup
	for i, wk := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A failed scrape appends nothing: the gap it leaves is the signal.
			scrapes[i], _ = c.workerClient(wk.URL).Scrape(ctx)
		}()
	}
	wg.Wait()
	for i, samples := range scrapes {
		db.AppendSamples(t, samples, obs.Label{Name: "worker", Value: workers[i].ID})
	}
}
