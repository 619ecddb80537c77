// Package service implements tqecd, the long-lived TQEC compilation
// daemon: an HTTP/JSON job service that runs the compression pipeline on
// a bounded worker pool, answers repeated compiles of identical workloads
// from a content-addressed result cache, and supports per-job deadlines
// and cancellation by plumbing context.Context into the pipeline's
// annealing and routing hot loops.
//
// Endpoints:
//
//	POST   /v1/jobs             submit a compile (may complete instantly on cache hit)
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result result payload (409 until the job is done)
//	GET    /v1/jobs/{id}/trace  span tree of a traced job (?format=chrome for chrome://tracing)
//	GET    /v1/jobs/{id}/events live Server-Sent-Events stream of the job's
//	                            flight-recorder journal (replays buffered
//	                            events, then tails until the job finishes)
//	GET    /v1/jobs/{id}/journal structured compression journal of a
//	                            finished job (409 until terminal)
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /healthz             liveness (503 while draining) + version, uptime, queue depth
//	GET    /metrics             counters, cache stats, latency histograms
//	                            (JSON by default; Prometheus text exposition
//	                            when the request Accepts text/plain)
//
// How a running job executes is its Runner's business (Config.Runner):
// Compiler runs the pipeline in process, and a fleet coordinator
// (internal/fleet) runs the same job lifecycle but dispatches each job to
// a worker.
//
// Everything is stdlib-only and deterministic for a fixed seed list: the
// same submission always produces the same result payload, which is what
// makes content-addressed caching sound.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"tqec/internal/circuit"
	"tqec/internal/compress"
	"tqec/internal/drc"
	"tqec/internal/journal"
	"tqec/internal/obs"
	"tqec/internal/store"
)

// Config tunes the service. Zero values select defaults.
type Config struct {
	// Workers bounds concurrent runs (default GOMAXPROCS). Negative lifts
	// the bound: every admitted job runs at once on its own goroutine, no
	// job waits, and QueueDepth is unused.
	Workers int
	// QueueDepth bounds waiting jobs; submits beyond it are rejected with
	// 503 (default 64).
	QueueDepth int
	// CacheEntries bounds the result cache (default 256; negative
	// disables caching, including the durable result store's read path).
	CacheEntries int
	// Store, when non-nil, is the durable storage layer: finished results
	// are written through to its content-addressed store (and served from
	// it across restarts as done_cached), and every job lifecycle
	// transition lands in its write-ahead log, replayed by New so jobs
	// queued or running at crash time are re-queued under their original
	// IDs. The caller owns the store and closes it after Shutdown/Close.
	// Nil keeps today's in-memory-only behavior, bit-identical.
	Store *store.Store
	// DefaultTimeout applies to jobs that do not set one (default 5m).
	DefaultTimeout time.Duration
	// MaxTimeout clamps requested deadlines (default 30m).
	MaxTimeout time.Duration
	// MaxFinishedJobs bounds how many terminal jobs stay queryable via the
	// status/result endpoints; beyond it the oldest-finished jobs are
	// forgotten so a long-lived daemon does not accumulate every job it
	// ever ran (default 512; negative retains everything).
	MaxFinishedJobs int
	// Logger receives structured per-job log lines (default: text handler
	// on stderr at info level, the same shape the tqec CLIs use).
	Logger *slog.Logger
	// Runner executes each job once a worker slot picks it up (default
	// Compiler(nil): the compression pipeline, in process). Tests inject
	// deterministic or blocking compiles through Compiler; a fleet
	// coordinator's Runner dispatches jobs to workers instead.
	Runner Runner
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Minute
	}
	if c.MaxFinishedJobs == 0 {
		c.MaxFinishedJobs = 512
	}
	if c.Logger == nil {
		l, err := obs.NewLogger(obs.LogConfig{Writer: os.Stderr})
		if err != nil { // unreachable with the zero config
			panic(err)
		}
		c.Logger = l
	}
	if c.Runner == nil {
		c.Runner = Compiler(nil)
	}
	return c
}

// State is a job's lifecycle stage.
type State string

// Job states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one tracked compilation. All mutable fields are guarded by the
// server mutex; the immutable inputs are set at submission.
type Job struct {
	ID   string
	Name string
	Key  string // cache key

	// req is the submission in wire form (as received, or rebuilt from the
	// WAL); its Source is released with circ once the job is terminal.
	req     SubmitRequest
	circ    *circuit.Circuit
	opt     compress.Options
	seeds   []int64
	timeout time.Duration
	// requestID is the X-Request-ID the submission carried (or ""),
	// stamped on every log line; immutable after submission.
	requestID string

	state           State
	cached          bool
	errMsg          string
	cancelRequested bool
	cancel          context.CancelCauseFunc
	submitted       time.Time
	started         time.Time
	finished        time.Time
	payload         *ResultPayload
	tracer          *obs.Tracer // non-nil once a traced job starts running
	dispatch        Dispatch    // set by a fleet coordinator's Runner

	// recorder is the job's flight recorder, a journal.DefaultMaxEvents
	// ring created at submission so even queued, cache-answered, and
	// rejected jobs stream their lifecycle. journal is the structured
	// waterfall document of a compile that ran to completion. Neither is
	// part of ResultPayload: a cache replay runs no pipeline, so replaying
	// a prior job's journal under a new job ID would misattribute it.
	recorder *journal.Recorder
	journal  *journal.Journal
}

// ResultPayload is the serialized outcome of a finished job — and the
// unit the result cache stores. It carries the compact report, not the
// full artifact bundle, so cached entries stay small.
type ResultPayload struct {
	Name     string          `json:"name"`
	CacheKey string          `json:"cache_key"`
	Report   compress.Report `json:"report"`
	DRC      *drc.Report     `json:"drc,omitempty"`
	Summary  string          `json:"summary"`
}

// Server is the compile service. Create with New, mount via Handler, and
// stop with Shutdown (graceful) or Close (immediate).
type Server struct {
	cfg     Config
	metrics *metrics
	cache   *resultCache
	store   *store.Store // nil without a data dir
	mux     *http.ServeMux
	runner  Runner

	rootCtx    context.Context
	rootCancel context.CancelFunc
	started    time.Time // process uptime anchor for /healthz

	mu       sync.Mutex
	jobs     map[string]*Job // guarded by mu
	nextID   int             // guarded by mu
	finished []string        // guarded by mu; terminal job IDs, oldest first, for retention pruning
	draining bool            // guarded by mu
	closed   bool            // guarded by mu
	queue    chan *Job
	workers  sync.WaitGroup
}

// New starts the worker pool and returns the service. ctx is the
// server's root context: cancelling it cancels every queued and running
// job (Shutdown additionally drains the pool gracefully).
func New(ctx context.Context, cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := newMetrics()
	var disk *store.Results
	if cfg.Store != nil {
		disk = cfg.Store.Results
		m.registerStore(cfg.Store)
	}
	s := &Server{
		cfg:     cfg,
		metrics: m,
		cache:   newResultCache(cfg.CacheEntries, disk, cfg.Logger, m),
		store:   cfg.Store,
		jobs:    map[string]*Job{},
		queue:   make(chan *Job, cfg.QueueDepth),
		runner:  cfg.Runner,
		started: time.Now(),
	}
	s.rootCtx, s.rootCancel = context.WithCancel(ctx)
	s.mux = s.routes()
	s.runner.Attach(s)
	// Replay the write-ahead log before any worker starts: jobs queued or
	// running when the previous process died re-enter the queue (under
	// their original IDs) ahead of every new submission.
	if s.store != nil {
		s.recoverFromWAL()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown drains the service: new submissions are rejected, queued and
// running jobs are allowed to finish, and the call returns when every
// worker has exited. If ctx expires first, in-flight compiles are
// cancelled (they stop at their next iteration boundary) and the drain
// completes with ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.rootCancel()
		<-done
		return ctx.Err()
	}
}

// Close cancels everything in flight and waits for the workers.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.rootCancel()
	s.workers.Wait()
}

// register enters a job into the table in the queued state, drawing the
// next ID unless it already has one (a WAL replay keeps its original ID).
// Callers hold no locks.
func (s *Server) register(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.ID == "" {
		s.nextID++
		j.ID = fmt.Sprintf("j%06d", s.nextID)
	}
	j.state = StateQueued
	j.submitted = time.Now()
	j.recorder = journal.NewRecorder(journal.DefaultMaxEvents)
	j.recorder.JobState(string(StateQueued), "")
	s.jobs[j.ID] = j
}

// enqueue pushes a registered job onto the bounded queue. It returns
// false when the service is draining or the queue is full; the job is
// then marked failed-rejected and the submit endpoint reports 503.
func (s *Server) enqueue(j *Job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	if s.cfg.Workers < 0 {
		s.metrics.jobsQueued.Add(1)
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			s.runJob(j)
		}()
		return true
	}
	select {
	case s.queue <- j:
		s.metrics.jobsQueued.Add(1)
		return true
	default:
		return false
	}
}

// worker runs queued jobs until the queue closes.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job end to end through the Runner and records its
// outcome.
func (s *Server) runJob(j *Job) {
	s.mu.Lock()
	s.metrics.jobsQueued.Add(-1)
	if j.state != StateQueued {
		// Cancelled while waiting in the queue.
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	queueDur := j.started.Sub(j.submitted)
	// The job's deadline is the Runner's to enforce (see Runner.Run).
	ctx, cancel := context.WithCancelCause(s.rootCtx)
	j.cancel = cancel
	if j.requestID != "" {
		// Outbound calls a Runner makes for this job carry its request ID.
		ctx = obs.WithRequestID(ctx, j.requestID)
	}
	// Each traced job gets its own tracer, so concurrent jobs never
	// interleave spans; untraced jobs keep the nil fast path.
	if j.req.Trace {
		j.tracer = obs.NewTracer("job:" + j.ID)
		// The root starts when the job leaves the queue. Its queue wait
		// is what a fleet coordinator adds to its dispatch span's start
		// to place this tree inside it.
		j.tracer.Root().SetAttr("queued_us", queueDur.Microseconds())
		ctx = obs.WithTracer(ctx, j.tracer)
	}
	ctx = journal.WithRecorder(ctx, j.recorder)
	j.recorder.JobState(string(StateRunning), "")
	s.mu.Unlock()
	defer cancel(nil)

	s.metrics.jobsRunning.Add(1)
	defer s.metrics.jobsRunning.Add(-1)
	s.metrics.jobQueueSeconds.Observe(queueDur.Seconds())
	s.log(j, "start", "seeds", len(j.seeds), "effort", j.opt.Effort.String(),
		"mode", j.opt.Mode.String(), "timeout", j.timeout, "trace", j.req.Trace)

	out, err := s.runner.Run(ctx, j)
	j.tracer.Finish()
	// A complete result enters the memory tier before the job can read
	// done, so a client that sees done and resubmits is answered from the
	// cache. The context can still fire before the lock below; the job's
	// state and the disk write follow that later reading.
	var encoded []byte
	if err == nil && !out.Partial && ctx.Err() == nil && !j.req.NoCache {
		encoded = s.cache.Put(j.Key, out.Payload)
	}

	s.mu.Lock()
	j.finished = time.Now()
	j.cancel = nil
	runDur := j.finished.Sub(j.started)
	// A partial result — a best-of sweep in which the context fired after
	// >=1 seed succeeded — is valid for this job but NOT the deterministic
	// full-seed-set answer the cache key promises, so it is never cached.
	partial := err == nil && (out.Partial || ctx.Err() != nil)
	switch {
	case err != nil && j.cancelRequested && errors.Is(err, context.Canceled):
		j.state = StateCanceled
		j.errMsg = "canceled"
		s.metrics.jobsCanceled.Inc()
		s.log(j, "canceled", "run_ms", ms(runDur))
	case err != nil && errors.Is(err, context.Canceled) && s.rootCtx.Err() != nil:
		// Aborted by Close or an expired Shutdown drain, not by the job's
		// own deadline or a DELETE.
		j.state = StateCanceled
		j.errMsg = "canceled: server shutting down"
		s.metrics.jobsCanceled.Inc()
		s.log(j, "canceled", "while", "draining", "run_ms", ms(runDur))
	case err != nil:
		j.state = StateFailed
		j.errMsg = err.Error()
		s.metrics.jobsFailed.Inc()
		s.log(j, "failed", "run_ms", ms(runDur), "err", j.errMsg)
	case j.cancelRequested && partial:
		// The cancel landed after some seeds had already succeeded; honor
		// the DELETE rather than reporting the partial sweep as done.
		j.state = StateCanceled
		j.errMsg = "canceled"
		s.metrics.jobsCanceled.Inc()
		s.log(j, "canceled", "run_ms", ms(runDur), "partial", true)
	default:
		j.state = StateDone
		j.journal = out.Journal
		j.payload = out.Payload
		if out.Cached {
			// Answered from a cache without compiling (a fleet worker's
			// cache hit): done_cached, and RunMS reports 0 like a cache hit
			// at submission.
			j.cached = true
			j.started = j.finished
			s.metrics.jobsDoneCached.Inc()
		} else {
			s.metrics.jobsDone.Inc()
		}
		s.log(j, "done", "run_ms", ms(runDur), "volume", out.Payload.Report.Volume,
			"placed", out.Payload.Report.PlacedVolume, "cached", out.Cached, "partial", partial)
	}
	s.metrics.jobRunSeconds.Observe(runDur.Seconds())
	s.finishLocked(j)
	state, cached, errMsg := j.state, j.cached, j.errMsg
	// A job aborted because the server itself is dying gets NO terminal
	// WAL record: its submitted record survives, so a restart replays it.
	// Every deliberate outcome — done, failed, a client's cancel — is
	// recorded durably.
	shutdownCancel := state == StateCanceled && !j.cancelRequested && s.rootCtx.Err() != nil
	s.mu.Unlock()

	// The durable write-through happens after the job reads done and
	// outside the server lock: disk latency must not stall the job table
	// or the job's answer.
	if !partial {
		s.cache.Persist(j.Key, encoded)
	}
	if !shutdownCancel {
		s.walTerminalFor(j, state, cached, errMsg)
	}
}

// finishLocked finalizes a terminal job under s.mu: the flight recorder
// emits its terminal state and closes (ending every SSE stream), the
// parsed circuit is released immediately, and once the retention bound is
// exceeded the oldest-finished jobs are dropped from the job table
// entirely (their IDs then answer 404, like a restart would). Every
// terminal transition — done, failed, canceled, rejected, cache replay —
// funnels through here, so subscribers always see exactly one terminal
// job-state event.
func (s *Server) finishLocked(j *Job) {
	j.recorder.JobState(string(j.state), j.errMsg)
	j.recorder.Close()
	// The ring is final now: fold any silently dropped events into the
	// daemon-wide counter so event loss is visible on /metrics.
	if n := j.recorder.Dropped(); n > 0 {
		s.metrics.journalDropped.Add(n)
	}
	j.circ = nil
	j.req.Source = Source{}
	if s.cfg.MaxFinishedJobs < 0 {
		return
	}
	s.finished = append(s.finished, j.ID)
	for len(s.finished) > s.cfg.MaxFinishedJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// cancelJob requests cancellation. The returned state is the job's state
// after the request; ok is false when the job was already terminal.
func (s *Server) cancelJob(j *Job) (State, bool) {
	s.mu.Lock()
	switch j.state {
	case StateQueued:
		// The worker will observe the state change and skip the job.
		j.state = StateCanceled
		j.cancelRequested = true
		j.errMsg = "canceled"
		j.finished = time.Now()
		s.metrics.jobsCanceled.Inc()
		s.finishLocked(j)
		s.mu.Unlock()
		s.walTerminalFor(j, StateCanceled, false, "canceled")
		s.log(j, "canceled", "while", "queued")
		return StateCanceled, true
	case StateRunning:
		j.cancelRequested = true
		cancel := j.cancel
		s.mu.Unlock()
		if cancel != nil {
			cancel(ErrCanceled)
		}
		// Durable intent: even if the compile (or the whole process) dies
		// before the cancel lands, replay must never resurrect this job.
		s.walAppend(walTypeCancelRequested, j.ID, nil)
		s.log(j, "cancel-requested", "while", "running")
		return StateRunning, true
	default:
		st := j.state
		s.mu.Unlock()
		return st, false
	}
}

// Stats is a point-in-time load snapshot of the service, the payload a
// fleet worker reports to its coordinator on every heartbeat.
type Stats struct {
	// Queued is the number of jobs waiting for a worker-pool slot.
	Queued int `json:"queued"`
	// Running is the number of jobs currently compiling.
	Running int `json:"running"`
}

// Stats reports the current queue depth and running-job count.
func (s *Server) Stats() Stats {
	return Stats{
		Queued:  len(s.queue),
		Running: int(s.metrics.jobsRunning.Value()),
	}
}

// jobByID looks a job up.
func (s *Server) jobByID(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// log emits one structured per-job log line; every line carries the job
// ID and name so a grep for job=j000042 reconstructs that job's history,
// and — when the submission carried an X-Request-ID — the request ID, so
// one logical job greps together across tqecc, coordinator, and worker.
func (s *Server) log(j *Job, event string, attrs ...any) {
	base := make([]any, 0, 6+len(attrs))
	base = append(base, "job", j.ID, "name", j.Name)
	if j.requestID != "" {
		base = append(base, "req_id", j.requestID)
	}
	s.cfg.Logger.Info(event, append(base, attrs...)...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
