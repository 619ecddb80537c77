package service

import (
	"io"
	"sort"
	"strconv"
	"time"

	"tqec/internal/obs"
	"tqec/internal/store"
)

// metrics is the service-wide observability surface, built on the obs
// registry so one set of instruments renders both ways: as the JSON
// document the /metrics endpoint has always served, and as Prometheus
// text exposition when the scraper asks for text/plain.
type metrics struct {
	reg *obs.Registry

	jobsSubmitted *obs.Counter
	jobsRejected  *obs.Counter // queue full
	jobsQueued    *obs.Gauge
	jobsRunning   *obs.Gauge
	// jobsDone counts compiles that ran to completion; jobsDoneCached
	// counts submissions answered from the result cache without running a
	// compile. The two are disjoint: every successfully completed
	// submission increments exactly one of them.
	jobsDone       *obs.Counter
	jobsDoneCached *obs.Counter
	jobsFailed     *obs.Counter
	jobsCanceled   *obs.Counter

	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter

	// journalDropped counts flight-recorder events lost to per-job ring
	// bounds, folded in as each job reaches a terminal state. A nonzero
	// value means GET /v1/jobs/{id}/events replays were incomplete —
	// silent before this counter existed.
	journalDropped *obs.Counter

	// Pipeline-level counters, accumulated from the best-seed result of
	// every completed compile: how much optimization work the daemon has
	// performed, not just how many jobs it ran.
	annealMoves    *obs.Counter
	annealAccepted *obs.Counter
	routeRounds    *obs.Counter
	primalMerges   *obs.Counter
	dualBridges    *obs.Counter

	queueWait *obs.Histogram    // submit → worker pickup
	compile   *obs.Histogram    // whole pipeline, per job
	stages    *obs.HistogramVec // per-pipeline-stage wall-clock

	// Queue and run latency as two separate seconds-unit histograms
	// (Prometheus convention). tqecd_queue_wait_ms conflated nothing, but
	// the old dashboards had only tqecd_compile_ms to answer "how long do
	// jobs take", which folds queue delay into nothing and run time into
	// one ms-unit family; these two keep the phases distinct so queue
	// saturation and slow compiles alarm separately.
	jobQueueSeconds *obs.Histogram // submit → worker pickup, seconds
	jobRunSeconds   *obs.Histogram // worker pickup → terminal state, seconds
}

// secondsBounds are bucket upper bounds for the seconds-unit job latency
// histograms: sub-millisecond pickups through multi-minute compiles.
var secondsBounds = []float64{
	.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600,
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	// Every /metrics surface also reports the process's own vitals.
	obs.RegisterRuntimeMetrics(reg)
	return &metrics{
		reg: reg,

		jobsSubmitted: reg.Counter("tqecd_jobs_submitted_total", "Jobs accepted by POST /v1/jobs."),
		jobsRejected:  reg.Counter("tqecd_jobs_rejected_total", "Submissions rejected because the queue was full or the service was draining."),
		jobsQueued:    reg.Gauge("tqecd_jobs_queued", "Jobs waiting for a worker."),
		jobsRunning:   reg.Gauge("tqecd_jobs_running", "Jobs currently compiling."),

		jobsDone:       reg.Counter("tqecd_jobs_done_total", "Compiles that ran to completion (excludes cache replays)."),
		jobsDoneCached: reg.Counter("tqecd_jobs_done_cached_total", "Submissions answered from the result cache without compiling."),
		jobsFailed:     reg.Counter("tqecd_jobs_failed_total", "Jobs that ended in an error."),
		jobsCanceled:   reg.Counter("tqecd_jobs_canceled_total", "Jobs canceled by DELETE, deadline at shutdown, or drain abort."),

		cacheHits:      reg.Counter("tqecd_cache_hits_total", "Result-cache lookups that found an entry."),
		cacheMisses:    reg.Counter("tqecd_cache_misses_total", "Result-cache lookups that found nothing."),
		cacheEvictions: reg.Counter("tqecd_cache_evictions_total", "Result-cache entries evicted by the LRU bound."),

		journalDropped: reg.Counter("tqecd_journal_dropped_events_total", "Flight-recorder journal events dropped by per-job ring bounds."),

		annealMoves:    reg.Counter("tqecd_anneal_moves_total", "Simulated-annealing moves attempted across completed compiles (best seed)."),
		annealAccepted: reg.Counter("tqecd_anneal_accepted_total", "Simulated-annealing moves accepted across completed compiles (best seed)."),
		routeRounds:    reg.Counter("tqecd_route_rounds_total", "PathFinder negotiation rounds across completed compiles (best seed)."),
		primalMerges:   reg.Counter("tqecd_primal_merges_total", "Primal-bridging module merges across completed compiles (best seed)."),
		dualBridges:    reg.Counter("tqecd_dual_bridges_total", "Dual-bridging merges across completed compiles (best seed)."),

		queueWait: reg.Histogram("tqecd_queue_wait_ms", "Milliseconds between submission and worker pickup.", nil),
		compile:   reg.Histogram("tqecd_compile_ms", "Whole-pipeline compile wall-clock, milliseconds.", nil),
		stages:    reg.HistogramVec("tqecd_stage_ms", "Per-pipeline-stage wall-clock, milliseconds.", "stage", nil),

		jobQueueSeconds: reg.Histogram("tqecd_job_queue_seconds", "Seconds a job waited in the queue before a worker picked it up.", secondsBounds),
		jobRunSeconds:   reg.Histogram("tqecd_job_run_seconds", "Seconds a job spent running, pickup to terminal state (any outcome).", secondsBounds),
	}
}

// registerStore exposes the durable storage layer as tqecd_store_*
// metric families, sampled from the store's own counters on every
// scrape — the families flow into the Prometheus exposition and the
// /metrics JSON without the store importing obs.
func (m *metrics) registerStore(st *store.Store) {
	if r := st.Results; r != nil {
		m.reg.CounterFunc("tqecd_store_hits_total", "Result-store reads served from disk.",
			func() float64 { return float64(r.Stats().Hits) })
		m.reg.CounterFunc("tqecd_store_misses_total", "Result-store reads that found nothing on disk.",
			func() float64 { return float64(r.Stats().Misses) })
		m.reg.CounterFunc("tqecd_store_writes_total", "Result payloads written through to disk.",
			func() float64 { return float64(r.Stats().Writes) })
		m.reg.CounterFunc("tqecd_store_gc_evictions_total", "Result files evicted by the byte-bounded LRU GC.",
			func() float64 { return float64(r.Stats().GCEvictions) })
		m.reg.CounterFunc("tqecd_store_corrupt_total", "Result files removed after failing CRC or envelope checks.",
			func() float64 { return float64(r.Stats().Corrupt) })
		m.reg.GaugeFunc("tqecd_store_entries", "Result files currently on disk.",
			func() float64 { return float64(r.Stats().Entries) })
		m.reg.GaugeFunc("tqecd_store_bytes", "On-disk bytes held by the result store.",
			func() float64 { return float64(r.Stats().Bytes) })
	}
	w := st.WAL
	m.reg.CounterFunc("tqecd_store_wal_records_total", "Write-ahead-log records appended since open.",
		func() float64 { return float64(w.Stats().Records) })
	m.reg.CounterFunc("tqecd_store_wal_replayed_total", "Write-ahead-log records recovered and replayed at startup.",
		func() float64 { return float64(w.Stats().Replayed) })
	m.reg.CounterFunc("tqecd_store_wal_truncated_total", "Corrupt or torn write-ahead-log tail records dropped at recovery.",
		func() float64 { return float64(w.Stats().Truncated) })
	m.reg.GaugeFunc("tqecd_store_wal_bytes", "On-disk bytes held by the write-ahead log.",
		func() float64 { return float64(w.Stats().Bytes) })
	m.reg.GaugeFunc("tqecd_store_wal_segments", "Write-ahead-log segment files on disk.",
		func() float64 { return float64(w.Stats().Segments) })
}

func (m *metrics) observeStage(name string, d time.Duration) {
	m.stages.With(name).ObserveDuration(d)
}

// writePrometheus renders the Prometheus text exposition form.
func (m *metrics) writePrometheus(w io.Writer) error {
	return m.reg.WritePrometheus(w)
}

// HistogramJSON is the JSON form of a histogram (non-cumulative buckets
// keyed by upper bound, matching the format the endpoint has always
// served; the Prometheus form is the le-cumulative one).
type HistogramJSON struct {
	Count   int64            `json:"count"`
	SumMS   float64          `json:"sum_ms"`
	MeanMS  float64          `json:"mean_ms"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

func jsonHist(s obs.HistSnapshot) HistogramJSON {
	out := HistogramJSON{Count: s.Count, SumMS: s.Sum, Buckets: map[string]int64{}}
	if s.Count > 0 {
		out.MeanMS = s.Sum / float64(s.Count)
	}
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if i < len(s.Bounds) {
			out.Buckets[formatBound(s.Bounds[i])] = c
		} else {
			out.Buckets["+Inf"] = c
		}
	}
	return out
}

// MetricsSnapshot is the /metrics JSON document, a summary for people
// and scripts (Client.Metrics). The Prometheus text form of the same
// endpoint carries every family.
type MetricsSnapshot struct {
	Jobs struct {
		Submitted int64 `json:"submitted"`
		Rejected  int64 `json:"rejected"`
		Queued    int64 `json:"queued"`
		Running   int64 `json:"running"`
		// Done counts compiles that ran; DoneCached counts cache replays.
		// The two are disjoint — a completed submission lands in exactly
		// one of them.
		Done       int64 `json:"done"`
		DoneCached int64 `json:"done_cached"`
		Failed     int64 `json:"failed"`
		Canceled   int64 `json:"canceled"`
	} `json:"jobs"`
	Cache struct {
		Hits      int64   `json:"hits"`
		Misses    int64   `json:"misses"`
		Evictions int64   `json:"evictions"`
		Entries   int     `json:"entries"`
		HitRate   float64 `json:"hit_rate"`
	} `json:"cache"`
	Pipeline struct {
		AnnealMoves    int64 `json:"anneal_moves"`
		AnnealAccepted int64 `json:"anneal_accepted"`
		RouteRounds    int64 `json:"route_rounds"`
		PrimalMerges   int64 `json:"primal_merges"`
		DualBridges    int64 `json:"dual_bridges"`
	} `json:"pipeline"`
	// Journal reports flight-recorder health: events silently dropped by
	// per-job ring bounds across all finished jobs.
	Journal struct {
		DroppedEvents int64 `json:"dropped_events"`
	} `json:"journal"`
	// Runtime is the process's own vitals, sampled from runtime/metrics
	// at snapshot time (the Prometheus exposition carries the same data
	// as the go_* families, including the full GC-pause histogram).
	Runtime struct {
		Goroutines   int64 `json:"goroutines"`
		HeapBytes    int64 `json:"heap_bytes"`
		GCPauseCount int64 `json:"gc_pause_count"`
	} `json:"runtime"`
	QueueDepth int                      `json:"queue_depth"`
	QueueWait  HistogramJSON            `json:"queue_wait_ms"`
	Compile    HistogramJSON            `json:"compile_ms"`
	Stages     map[string]HistogramJSON `json:"stage_ms"`
}

func (m *metrics) snapshot(queueDepth, cacheEntries int) MetricsSnapshot {
	var s MetricsSnapshot
	s.Jobs.Submitted = m.jobsSubmitted.Value()
	s.Jobs.Rejected = m.jobsRejected.Value()
	s.Jobs.Queued = m.jobsQueued.Value()
	s.Jobs.Running = m.jobsRunning.Value()
	s.Jobs.Done = m.jobsDone.Value()
	s.Jobs.DoneCached = m.jobsDoneCached.Value()
	s.Jobs.Failed = m.jobsFailed.Value()
	s.Jobs.Canceled = m.jobsCanceled.Value()
	s.Cache.Hits = m.cacheHits.Value()
	s.Cache.Misses = m.cacheMisses.Value()
	s.Cache.Evictions = m.cacheEvictions.Value()
	s.Cache.Entries = cacheEntries
	if total := s.Cache.Hits + s.Cache.Misses; total > 0 {
		s.Cache.HitRate = float64(s.Cache.Hits) / float64(total)
	}
	s.Journal.DroppedEvents = m.journalDropped.Value()
	rt := obs.ReadRuntimeStats()
	s.Runtime.Goroutines = rt.Goroutines
	s.Runtime.HeapBytes = rt.HeapBytes
	s.Runtime.GCPauseCount = rt.GCPauses.Count
	s.Pipeline.AnnealMoves = m.annealMoves.Value()
	s.Pipeline.AnnealAccepted = m.annealAccepted.Value()
	s.Pipeline.RouteRounds = m.routeRounds.Value()
	s.Pipeline.PrimalMerges = m.primalMerges.Value()
	s.Pipeline.DualBridges = m.dualBridges.Value()
	s.QueueDepth = queueDepth
	s.QueueWait = jsonHist(m.queueWait.Snapshot())
	s.Compile = jsonHist(m.compile.Snapshot())
	s.Stages = map[string]HistogramJSON{}
	stageSnaps := m.stages.Snapshot()
	names := make([]string, 0, len(stageSnaps))
	for n := range stageSnaps {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s.Stages[n] = jsonHist(stageSnaps[n])
	}
	return s
}

func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}
