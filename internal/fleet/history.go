package fleet

import (
	"context"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"tqec/internal/obs"
	"tqec/internal/service"
	"tqec/internal/tsdb"
)

// retainWorkerHistory runs after each of the coordinator's self-scrapes:
// it live-scrapes every non-dead worker's /metrics document and retains
// the worker families as per-worker series tagged worker="<id>". A worker
// that dies simply stops producing new samples, so its series trail the
// store's write cursor and come back from /v1/query_range marked stale —
// the dead-worker gap marking.
func (c *Coordinator) retainWorkerHistory(db *tsdb.DB, t time.Time) {
	workers := c.reg.snapshotIf(func(w *workerEntry) bool { return w.state != WorkerDead })
	snaps := make([]*service.MetricsSnapshot, len(workers))
	ctx, cancel := context.WithTimeout(c.ctx, c.cfg.HistoryInterval)
	defer cancel()
	var wg sync.WaitGroup
	for i, wk := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if snap, err := c.workerClient(wk.URL).Metrics(ctx); err == nil {
				snaps[i] = &snap
			} // the gap left behind is the signal
		}()
	}
	wg.Wait()
	for i, snap := range snaps {
		if snap != nil {
			db.AppendSamples(t, snapshotSamples(*snap), obs.Label{Name: "worker", Value: workers[i].ID})
		}
	}
}

// snapshotSamples flattens a worker's /metrics JSON document into the
// same sample shapes the worker's own Prometheus exposition carries, so
// per-worker history series share names with the single-process ones.
func snapshotSamples(s service.MetricsSnapshot) []obs.Sample {
	counter := func(name string, v int64) obs.Sample {
		return obs.Sample{Name: name, Kind: obs.SampleCounter, Value: float64(v)}
	}
	gauge := func(name string, v int64) obs.Sample {
		return obs.Sample{Name: name, Kind: obs.SampleGauge, Value: float64(v)}
	}
	out := []obs.Sample{
		counter("tqecd_jobs_submitted_total", s.Jobs.Submitted),
		counter("tqecd_jobs_rejected_total", s.Jobs.Rejected),
		gauge("tqecd_jobs_queued", s.Jobs.Queued),
		gauge("tqecd_jobs_running", s.Jobs.Running),
		counter("tqecd_jobs_done_total", s.Jobs.Done),
		counter("tqecd_jobs_done_cached_total", s.Jobs.DoneCached),
		counter("tqecd_jobs_failed_total", s.Jobs.Failed),
		counter("tqecd_jobs_canceled_total", s.Jobs.Canceled),
		counter("tqecd_cache_hits_total", s.Cache.Hits),
		counter("tqecd_cache_misses_total", s.Cache.Misses),
		counter("tqecd_cache_evictions_total", s.Cache.Evictions),
		counter("tqecd_journal_dropped_events_total", s.Journal.DroppedEvents),
		counter("tqecd_slow_profiles_started_total", s.SlowProfiles.Started),
		counter("tqecd_slow_profiles_skipped_total", s.SlowProfiles.Skipped),
		counter("tqecd_anneal_moves_total", s.Pipeline.AnnealMoves),
		counter("tqecd_anneal_accepted_total", s.Pipeline.AnnealAccepted),
		counter("tqecd_route_rounds_total", s.Pipeline.RouteRounds),
		counter("tqecd_primal_merges_total", s.Pipeline.PrimalMerges),
		counter("tqecd_dual_bridges_total", s.Pipeline.DualBridges),
		gauge("go_goroutines", s.Runtime.Goroutines),
		gauge("go_memstats_heap_alloc_bytes", s.Runtime.HeapBytes),
	}
	out = histJSONSamples(out, "tqecd_queue_wait_ms", s.QueueWait)
	out = histJSONSamples(out, "tqecd_compile_ms", s.Compile)
	return out
}

// histJSONSamples expands a JSON histogram (non-cumulative buckets keyed
// by upper bound) into Prometheus-shaped cumulative _bucket/_sum/_count
// counter samples. Zero buckets are omitted from the JSON form; the
// cumulative counts at the bounds that ARE present are unaffected by the
// omission, so quantile estimation over the rebuilt series stays exact.
func histJSONSamples(out []obs.Sample, name string, h service.HistogramJSON) []obs.Sample {
	type bound struct {
		key string
		val float64
	}
	bounds := make([]bound, 0, len(h.Buckets))
	for k := range h.Buckets {
		if k == "+Inf" {
			bounds = append(bounds, bound{key: k, val: math.Inf(1)})
			continue
		}
		v, err := strconv.ParseFloat(k, 64)
		if err != nil {
			continue
		}
		bounds = append(bounds, bound{key: k, val: v})
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i].val < bounds[j].val })
	var cum int64
	for _, b := range bounds {
		cum += h.Buckets[b.key]
		le := b.key
		if math.IsInf(b.val, 1) {
			le = "+Inf"
		}
		out = append(out, obs.Sample{
			Name:   name + "_bucket",
			Labels: []obs.Label{{Name: "le", Value: le}},
			Kind:   obs.SampleCounter,
			Value:  float64(cum),
		})
	}
	out = append(out,
		obs.Sample{Name: name + "_sum", Kind: obs.SampleCounter, Value: h.SumMS},
		obs.Sample{Name: name + "_count", Kind: obs.SampleCounter, Value: float64(h.Count)},
	)
	return out
}
