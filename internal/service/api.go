package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"tqec/internal/bench"
	"tqec/internal/circuit"
	"tqec/internal/compress"
	"tqec/internal/obs"
	"tqec/internal/revlib"
	"tqec/internal/tsdb"
)

// SubmitRequest is the POST /v1/jobs body.
type SubmitRequest struct {
	// Name labels the job in statuses, results, and logs; defaults to the
	// circuit's own name.
	Name    string     `json:"name,omitempty"`
	Source  Source     `json:"source"`
	Options OptionSpec `json:"options"`
	// TimeoutMS bounds the compile wall-clock (clamped to the server
	// maximum; 0 selects the server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache skips both cache lookup and insertion for this job.
	NoCache bool `json:"no_cache,omitempty"`
	// Trace records a span tree for the compile, retrievable from
	// GET /v1/jobs/{id}/trace once the job finishes. A traced submission
	// skips the cache lookup (a cached answer would carry no trace) but
	// its result is still cached for later submissions.
	Trace bool `json:"trace,omitempty"`
}

// Source selects exactly one circuit input.
type Source struct {
	// Real is an inline RevLib .real circuit.
	Real string `json:"real,omitempty"`
	// Text is an inline plain-text gate list.
	Text string `json:"text,omitempty"`
	// Sample names an embedded sample (threecnot, toffoli3, mixed4).
	Sample string `json:"sample,omitempty"`
	// Bench names a synthetic Table-1 benchmark; GenSeed seeds its
	// generator (default 1).
	Bench   string `json:"bench,omitempty"`
	GenSeed int64  `json:"gen_seed,omitempty"`
}

// OptionSpec is the JSON form of compress.Options plus the seed set.
type OptionSpec struct {
	Mode                  string  `json:"mode,omitempty"`   // full | dual | deform (default full)
	Effort                string  `json:"effort,omitempty"` // fast | normal | high (default fast)
	Seeds                 []int64 `json:"seeds,omitempty"`  // SA restart seeds (default [1])
	Parallel              int     `json:"parallel,omitempty"`
	SkipRouting           bool    `json:"skip_routing,omitempty"`
	MeasurementSideIShape bool    `json:"measurement_side_ishape,omitempty"`
	NoCompaction          bool    `json:"no_compaction,omitempty"`
	PrimalRestarts        int     `json:"primal_restarts,omitempty"`
	// DRC attaches the design-rule-check report to the result payload.
	DRC bool `json:"drc,omitempty"`
}

// JobStatus is the GET /v1/jobs/{id} (and submit) response.
type JobStatus struct {
	ID       string `json:"id"`
	Name     string `json:"name,omitempty"`
	State    State  `json:"state"`
	Cached   bool   `json:"cached,omitempty"`
	Error    string `json:"error,omitempty"`
	CacheKey string `json:"cache_key"`
	// QueuedMS is time spent waiting for a worker — live (submission to
	// now) while the job is still queued, final once it started. Kept
	// separate from RunMS so queue saturation is visible per job, not just
	// in the aggregate tqecd_job_queue_seconds histogram.
	QueuedMS float64 `json:"queued_ms,omitempty"`
	RunMS    float64 `json:"run_ms,omitempty"`
	// Profiled reports that the job crossed the daemon's slow-job
	// threshold and a CPU profile is waiting at GET /v1/jobs/{id}/profile.
	Profiled bool `json:"profiled,omitempty"`
	// Worker is the fleet worker a coordinator dispatched the job to, and
	// Retries the failed dispatch attempts and failovers it took (both
	// empty outside a coordinator).
	Worker  string `json:"worker,omitempty"`
	Retries int    `json:"retries,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/profile", s.handleProfile)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/journal", s.handleJournal)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/query_range", s.handleQueryRange)
	mux.HandleFunc("GET /v1/alerts", s.handleAlerts)
	mux.HandleFunc("GET /v1/store", s.handleStore)
	return mux
}

// handleStore serves the durable storage layer's stats document; 404
// when the daemon runs without a data dir (nothing is persisted then).
func (s *Server) handleStore(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no durable store (start with -data-dir)"})
		return
	}
	writeJSON(w, http.StatusOK, s.store.Stats())
}

// handleQueryRange serves metrics history from the self-scrape store;
// 404 when the loop is disabled (the daemon retains no history then).
func (s *Server) handleQueryRange(w http.ResponseWriter, r *http.Request) {
	if s.history == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "metrics history disabled (start with -self-scrape > 0)"})
		return
	}
	tsdb.HandleQueryRange(s.history)(w, r)
}

// handleAlerts serves SLO alert states and transition events; 404 when
// no objectives are configured.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if s.slo == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no SLOs configured (start with -slo objectives.json)"})
		return
	}
	tsdb.HandleAlerts(s.slo)(w, r)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request: " + err.Error()})
		return
	}
	c, err := loadSource(req.Source)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	opt, seeds, err := req.Options.resolve()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	if req.Name == "" {
		req.Name = c.Name
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	key, err := CacheKey(c, opt, seeds)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}

	// Correlation headers: a traceparent ties a traced job's spans into
	// the caller's distributed trace (malformed headers degrade to a
	// fresh local root rather than failing the submit), and the request
	// ID threads through every log line this job emits.
	var traceCtx obs.TraceContext
	if req.Trace {
		if h := r.Header.Get(obs.TraceparentHeader); h != "" {
			if tc, err := obs.ParseTraceparent(h); err == nil {
				traceCtx = tc
			} else {
				s.cfg.Logger.Warn("bad traceparent", "err", err)
			}
		}
	}
	j := &Job{Name: req.Name, Key: key, req: req, circ: c, opt: opt, seeds: seeds, timeout: timeout,
		traceCtx: traceCtx, requestID: r.Header.Get(obs.RequestIDHeader)}
	s.register(j)
	s.metrics.jobsSubmitted.Inc()
	// Durable before runnable: the submitted record reaches the WAL
	// before the job can enter the queue, so a crash at any later moment
	// replays it.
	s.walSubmitted(j)

	// Content-addressed fast path: an identical compile already ran, so
	// the job completes instantly with the cached payload (re-labelled
	// with this submission's name). Traced jobs always compile — the
	// trace is the point, and a cached answer has none.
	if !req.NoCache && !req.Trace {
		if p, ok := s.cache.Get(key); ok {
			s.finishCached(j, p)
			s.log(j, "done", "cached", true)
			writeJSON(w, http.StatusOK, s.status(j))
			return
		}
	}

	if !s.enqueue(j) {
		s.mu.Lock()
		j.state = StateFailed
		j.errMsg = "queue full or service draining"
		j.finished = time.Now()
		s.finishLocked(j)
		s.mu.Unlock()
		s.metrics.jobsRejected.Inc()
		s.walTerminalFor(j, StateFailed, false, j.errMsg)
		s.log(j, "rejected")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "queue full or service draining"})
		return
	}
	s.log(j, "submitted", "key", j.Key[:12], "timeout", timeout)
	writeJSON(w, http.StatusAccepted, s.status(j))
}

// JobList is the GET /v1/jobs response: job statuses newest-first,
// truncated to the requested limit. Total counts every job that matched
// the filter before truncation, so a client can tell the list is partial.
type JobList struct {
	Jobs  []JobStatus `json:"jobs"`
	Total int         `json:"total"`
}

// handleList serves GET /v1/jobs: every retained job, newest-first.
// ?state= filters on one lifecycle state; ?limit= bounds the page
// (default 100, 0 = unlimited).
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	filter := State(q.Get("state"))
	switch filter {
	case "", StateQueued, StateRunning, StateDone, StateFailed, StateCanceled:
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("unknown state %q", filter)})
		return
	}
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad limit %q", v)})
			return
		}
		limit = n
	}

	s.mu.Lock()
	matched := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if filter == "" || j.state == filter {
			matched = append(matched, j)
		}
	}
	// Newest first. IDs are zero-padded monotonic (j000001, j000002, …),
	// so a longer ID is always newer and equal-width IDs order textually.
	sort.Slice(matched, func(a, b int) bool {
		if len(matched[a].ID) != len(matched[b].ID) {
			return len(matched[a].ID) > len(matched[b].ID)
		}
		return matched[a].ID > matched[b].ID
	})
	out := JobList{Total: len(matched), Jobs: []JobStatus{}}
	for _, j := range matched {
		if limit > 0 && len(out.Jobs) >= limit {
			break
		}
		out.Jobs = append(out.Jobs, s.statusLocked(j))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, s.status(j))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	s.mu.Lock()
	state, errMsg, payload := j.state, j.errMsg, j.payload
	s.mu.Unlock()
	if state != StateDone {
		msg := fmt.Sprintf("job is %s, no result", state)
		if errMsg != "" {
			msg += ": " + errMsg
		}
		writeJSON(w, http.StatusConflict, errorResponse{Error: msg})
		return
	}
	writeJSON(w, http.StatusOK, payload)
}

// handleTrace serves the span tree of a traced job once it is terminal
// (the tracer is being written while the compile runs). ?format=chrome
// selects the Chrome trace_event array form for chrome://tracing.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	s.mu.Lock()
	state, tracer := j.state, j.tracer
	s.mu.Unlock()
	if tracer == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "job was not traced (submit with \"trace\": true)"})
		return
	}
	if !state.Terminal() {
		writeJSON(w, http.StatusConflict, errorResponse{Error: fmt.Sprintf("job is %s, trace not final", state)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("format") == "chrome" {
		_ = tracer.WriteChromeTrace(w)
		return
	}
	_ = tracer.WriteJSON(w)
}

// handleProfile serves the pprof CPU profile captured for a job that
// ran past the slow-job threshold; jobs that never crossed it (or ran
// while another capture held the process's one profiler slot) answer
// 404. The profile is written while the job runs, so like the trace it
// is only served once the job is terminal.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	s.mu.Lock()
	state, profile := j.state, j.profile
	s.mu.Unlock()
	if !state.Terminal() {
		writeJSON(w, http.StatusConflict, errorResponse{Error: fmt.Sprintf("job is %s, profile not final", state)})
		return
	}
	if len(profile) == 0 {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no profile: job did not cross the slow-job threshold"})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="`+j.ID+`.pprof"`)
	_, _ = w.Write(profile)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	if st, ok := s.cancelJob(j); !ok {
		writeJSON(w, http.StatusConflict, errorResponse{
			Error: fmt.Sprintf("job already %s", st),
		})
		return
	}
	writeJSON(w, http.StatusOK, s.status(j))
}

// HealthStatus is the GET /healthz response.
type HealthStatus struct {
	Status     string  `json:"status"`
	Version    string  `json:"version"`
	UptimeMS   float64 `json:"uptime_ms"`
	QueueDepth int     `json:"queue_depth"`
}

// Health reports the daemon's liveness document: status "ok", or
// "draining" once Shutdown or Close has begun.
func (s *Server) Health() HealthStatus {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	h := HealthStatus{
		Status:     "ok",
		Version:    obs.Version(),
		UptimeMS:   ms(time.Since(s.started)),
		QueueDepth: len(s.queue),
	}
	if draining {
		h.Status = "draining"
	}
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	code := http.StatusOK
	if h.Status == "draining" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// handleMetrics content-negotiates: a request whose Accept header asks
// for text/plain (a Prometheus scraper) gets the text exposition format;
// everything else keeps the JSON document tools already consume.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if accept := r.Header.Get("Accept"); strings.Contains(accept, "text/plain") {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.metrics.writePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, s.metrics.snapshot(len(s.queue), s.cache.Len()))
}

// status renders a job under the server lock.
func (s *Server) status(j *Job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked(j)
}

// statusLocked renders a job; the caller holds s.mu.
func (s *Server) statusLocked(j *Job) JobStatus {
	st := JobStatus{
		ID:       j.ID,
		Name:     j.Name,
		State:    j.state,
		Cached:   j.cached,
		Error:    j.errMsg,
		CacheKey: j.Key,
		Profiled: len(j.profile) > 0 || j.dispatch.Profiled,
		Worker:   j.dispatch.Worker,
		Retries:  j.dispatch.Retries,
	}
	if !j.started.IsZero() {
		st.QueuedMS = ms(j.started.Sub(j.submitted))
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		st.RunMS = ms(end.Sub(j.started))
	} else if j.state == StateQueued {
		// Still waiting for a worker: report the wait so far, so a client
		// polling a saturated daemon can see the queue delay growing.
		st.QueuedMS = ms(time.Since(j.submitted))
	}
	return st
}

// loadSource materializes the submitted circuit.
func loadSource(src Source) (*circuit.Circuit, error) {
	set := 0
	for _, has := range []bool{src.Real != "", src.Text != "", src.Sample != "", src.Bench != ""} {
		if has {
			set++
		}
	}
	if set != 1 {
		return nil, fmt.Errorf("source: need exactly one of real, text, sample, bench (got %d)", set)
	}
	switch {
	case src.Real != "":
		return revlib.ParseString(src.Real)
	case src.Text != "":
		return circuit.ParseText(strings.NewReader(src.Text))
	case src.Sample != "":
		body, ok := revlib.Samples[src.Sample]
		if !ok {
			return nil, fmt.Errorf("source: unknown sample %q", src.Sample)
		}
		return revlib.ParseString(body)
	default:
		spec, ok := bench.ByName(src.Bench)
		if !ok {
			return nil, fmt.Errorf("source: unknown benchmark %q", src.Bench)
		}
		genSeed := src.GenSeed
		if genSeed == 0 {
			genSeed = 1
		}
		return spec.Generate(genSeed)
	}
}

// resolve converts the wire options into pipeline options and a seed set.
func (o OptionSpec) resolve() (compress.Options, []int64, error) {
	opt := compress.Options{
		MeasurementSideIShape: o.MeasurementSideIShape,
		SkipRouting:           o.SkipRouting,
		NoCompaction:          o.NoCompaction,
		PrimalRestarts:        o.PrimalRestarts,
		DRC:                   o.DRC,
	}
	switch o.Mode {
	case "", "full":
		opt.Mode = compress.Full
	case "dual":
		opt.Mode = compress.DualOnly
	case "deform":
		opt.Mode = compress.DeformOnly
	default:
		return opt, nil, fmt.Errorf("options: unknown mode %q", o.Mode)
	}
	switch o.Effort {
	case "", "fast":
		opt.Effort = compress.EffortFast
	case "normal":
		opt.Effort = compress.EffortNormal
	case "high":
		opt.Effort = compress.EffortHigh
	default:
		return opt, nil, fmt.Errorf("options: unknown effort %q", o.Effort)
	}
	seeds := o.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	return opt, seeds, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
