package service

import (
	"context"
	"errors"
	"time"

	"tqec/internal/circuit"
	"tqec/internal/compress"
	"tqec/internal/journal"
	"tqec/internal/obs"
	"tqec/internal/tsdb"
)

// Runner executes the jobs a Server queues. The Server owns everything
// around a run — IDs, the queue, cancellation, retention, the WAL, the
// journal and trace plumbing, the job-lifecycle metrics — and the Runner
// owns only the run itself. Compiler runs the compression pipeline in
// process; a fleet coordinator's Runner dispatches each job to a worker.
type Runner interface {
	// Attach hands the Runner its Server. New calls it once, before WAL
	// replay and before the first job or self-scrape runs, so a Runner can
	// register metric families and scrape hooks here.
	Attach(s *Server)
	// Run executes one job. ctx ends on a DELETE (its context.Cause is
	// then ErrCanceled) or on server shutdown, and carries the job's
	// tracer, flight recorder and request ID; return ctx's error when it
	// ends the run. The job's deadline is the Runner's to enforce over the
	// work it bounds: Compiler applies it to the compile, and a fleet
	// coordinator leaves it to the worker it forwards the job to.
	Run(ctx context.Context, j *Job) (Outcome, error)
}

// ErrCanceled is the context.Cause of a run that a client's DELETE ended,
// as opposed to one that server shutdown abandoned.
var ErrCanceled = errors.New("job canceled")

// Outcome is a successful run's result.
type Outcome struct {
	Payload *ResultPayload
	// Cached reports the payload came from a cache and nothing compiled
	// (a fleet worker's cache hit): the job counts as done_cached.
	Cached bool
	// Partial marks an interrupted multi-seed sweep: valid for this job,
	// never cached, and canceled instead of done when a DELETE caused it.
	Partial bool
	// Journal is the compile's waterfall document, when one ran here.
	Journal *journal.Journal
}

// CompileFunc runs one multi-seed compile.
type CompileFunc func(ctx context.Context, c *circuit.Circuit, opt compress.Options, seeds []int64, parallel int) (*compress.Result, error)

// Compiler returns the in-process Runner: it compiles each job on the
// Server's worker pool with compile (compress.CompileBestContext when
// nil). Use one Compiler per Server.
func Compiler(compile CompileFunc) Runner {
	if compile == nil {
		compile = compress.CompileBestContext
	}
	return &compiler{compile: compile}
}

type compiler struct {
	s       *Server
	compile CompileFunc
}

func (c *compiler) Attach(s *Server) { c.s = s }

func (c *compiler) Run(ctx context.Context, j *Job) (Outcome, error) {
	s := c.s
	ctx, cancel := context.WithTimeout(ctx, j.timeout)
	defer cancel()
	prof := s.armSlowProfile(j)
	start := time.Now()
	res, err := c.compile(ctx, j.circ, j.opt, j.seeds, j.req.Options.Parallel)
	dur := time.Since(start)
	profile := prof.stop()
	s.mu.Lock()
	j.profile = profile
	s.mu.Unlock()
	if err != nil {
		return Outcome{}, err
	}
	s.metrics.compile.ObserveDuration(dur)
	for _, st := range res.StageTimes {
		s.metrics.observeStage(st.Stage, st.Duration)
	}
	s.recordPipeline(res)
	rep := res.Report()
	rep.Name = j.Name
	return Outcome{
		Payload: &ResultPayload{
			Name:     j.Name,
			CacheKey: j.Key,
			Report:   rep,
			DRC:      res.DRC,
			Summary:  res.Summary(),
		},
		Partial: seedsInterrupted(res.SeedErrors) || ctx.Err() != nil,
		Journal: res.Journal,
	}, nil
}

// recordPipeline folds the best-seed result of a completed compile into
// the pipeline-level counters: how much optimization work the daemon has
// performed, not just how many jobs it ran.
func (s *Server) recordPipeline(res *compress.Result) {
	if res.Placement != nil {
		s.metrics.annealMoves.Add(int64(res.Placement.SA.Moves))
		s.metrics.annealAccepted.Add(int64(res.Placement.SA.Accepted))
	}
	if res.Routing != nil {
		s.metrics.routeRounds.Add(int64(res.Routing.Iters))
	}
	if merges := res.NumModules - res.NumNodes; merges > 0 {
		s.metrics.primalMerges.Add(int64(merges))
	}
	if res.Dual != nil {
		s.metrics.dualBridges.Add(int64(res.Dual.NumBridges()))
	}
}

// seedsInterrupted reports whether any per-seed failure was the context
// being canceled or timing out, i.e. the sweep stopped early rather than
// running every seed to completion.
func seedsInterrupted(errs []compress.SeedError) bool {
	for _, se := range errs {
		if errors.Is(se.Err, context.Canceled) || errors.Is(se.Err, context.DeadlineExceeded) {
			return true
		}
	}
	return false
}

// Request returns the job's submission in wire form, name defaulted: as
// received, or, for a job replayed from the WAL, with the normalized
// circuit text as its source. It is for the job's Runner while it runs.
func (j *Job) Request() SubmitRequest { return j.req }

// Dispatch is where a fleet coordinator's Runner placed a job.
type Dispatch struct {
	// Worker is the owning worker's ID, reported in the job status.
	Worker string
	// URL is the worker's base URL and RemoteID the job's ID there.
	URL, RemoteID string
	// Retries counts failed dispatch attempts and failovers, reported in
	// the job status.
	Retries int
	// Profiled reports that the worker recorded a slow-job profile, which
	// the job status shows as profiled.
	Profiled bool
}

// SetDispatch records where j runs now.
func (s *Server) SetDispatch(j *Job, d Dispatch) {
	s.mu.Lock()
	j.dispatch = d
	s.mu.Unlock()
}

// JobDispatch returns job id's dispatch record and state; ok is false for
// an unknown job.
func (s *Server) JobDispatch(id string) (d Dispatch, st State, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Dispatch{}, "", false
	}
	return j.dispatch, j.state, true
}

// JobTrace returns the span tree of job id once it is terminal; nil when
// the job is unknown, untraced, or still running (GET /v1/jobs/{id}/trace
// explains which).
func (s *Server) JobTrace(id string) *obs.SpanJSON {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || !j.state.Terminal() {
		return nil
	}
	return j.tracer.Tree()
}

// Registry is the metric registry behind /metrics and the self-scrape
// history; a Runner registers its own families here from Attach.
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }

// AfterScrape hooks fn into the self-scrape loop: it runs after every
// scrape, before SLO evaluation, with the history store and the scrape
// time. Call it from Runner.Attach; it never runs when history is off.
func (s *Server) AfterScrape(fn func(db *tsdb.DB, t time.Time)) {
	s.scrapeHook = fn
}
