package service

import (
	"encoding/json"
	"strconv"
	"strings"
	"time"

	"tqec/internal/circuit"
)

// WAL record vocabulary. The store frames and persists records; the
// service defines what they mean:
//
//	submitted        job accepted, Data = walSubmit (everything needed to re-run)
//	terminal         job reached done/failed/canceled, Data = walTerminal
//	cancel_requested a client DELETE landed while the job ran; replay
//	                 must never re-queue this job even without a terminal
//	                 record (the compile may have died mid-cancel)
//	next_id          Data = walNextID, the ID high-water mark, appended
//	                 after startup compaction so terminal jobs' IDs are
//	                 never reused once their records are compacted away
//
// Replay skips any other type, such as the started record older binaries
// appended when a worker picked a job up.
//
// Deliberately absent: a terminal record for jobs canceled because the
// server itself was shutting down (drain abort or Close). Those jobs
// were interrupted by the process dying, not by anyone's decision about
// the job — exactly the jobs a restart should re-queue.
const (
	walTypeSubmitted       = "submitted"
	walTypeTerminal        = "terminal"
	walTypeCancelRequested = "cancel_requested"
	walTypeNextID          = "next_id"
)

// walSubmit re-runs a job from scratch: the normalized circuit text,
// the wire-form options (seeds and parallelism included), and the
// submission knobs. Trace and request-ID correlation are deliberately
// not persisted — a replayed job runs untraced, as documented in the
// README's durability section.
type walSubmit struct {
	Name string `json:"name"`
	// Key is written but never read: replay recomputes the key, so a
	// record from before a pipeline-version bump is never answered with
	// that version's result. It stays because an older binary's replay
	// keys the job by it and slices it for a log line.
	Key       string     `json:"key"`
	Circuit   string     `json:"circuit"`
	Options   OptionSpec `json:"options"`
	TimeoutMS int64      `json:"timeout_ms,omitempty"`
	NoCache   bool       `json:"no_cache,omitempty"`
}

type walTerminal struct {
	State  State  `json:"state"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

type walNextID struct {
	N int `json:"n"`
}

// walAppend appends one record, best-effort: a WAL failure degrades
// durability (the job may not replay after a crash), never availability.
// Callers must NOT hold s.mu — the WAL has its own lock, and compaction
// acquires s.mu through its retain callback, so the only safe order is
// WAL lock before server lock.
func (s *Server) walAppend(typ, jobID string, data any) {
	if s.store == nil {
		return
	}
	if err := s.store.WAL.Append(typ, jobID, time.Now().UnixMilli(), data); err != nil {
		s.cfg.Logger.Warn("wal append failed", "type", typ, "job", jobID, "err", err)
	}
}

// walSubmitted makes a freshly registered job durable before it can
// reach the queue (or the cache fast path): a crash at any later instant
// replays it.
func (s *Server) walSubmitted(j *Job) {
	if s.store == nil {
		return
	}
	var sb strings.Builder
	if err := circuit.WriteText(&sb, j.circ); err != nil {
		s.cfg.Logger.Warn("wal submit: circuit serialization failed", "job", j.ID, "err", err)
		return
	}
	s.walAppend(walTypeSubmitted, j.ID, walSubmit{
		Name:      j.Name,
		Key:       j.Key,
		Circuit:   sb.String(),
		Options:   j.req.Options,
		TimeoutMS: j.timeout.Milliseconds(),
		NoCache:   j.req.NoCache,
	})
}

// walTerminalFor records a job's terminal state; call only after the
// state transition is published (outside s.mu).
func (s *Server) walTerminalFor(j *Job, state State, cached bool, errMsg string) {
	s.walAppend(walTypeTerminal, j.ID, walTerminal{State: state, Cached: cached, Error: errMsg})
}

// recoverFromWAL replays the recovered record stream: jobs without a
// terminal (or cancel_requested) record were queued or running when the
// previous process died and are re-queued under their original IDs —
// served straight from the result store as done_cached when the payload
// already landed, recompiled otherwise. Replay is at-least-once: a
// repeat run of an already-completed job produces a byte-identical
// payload, so the worst cost of a lost terminal record is one redundant
// compile. Terminal jobs are forgotten (their IDs answer 404, exactly
// like retention pruning); their payloads survive in the result store.
//
// Runs from New before any worker starts, so replayed jobs precede all
// new submissions in the queue. Afterwards the WAL is compacted down to
// the still-live jobs' records plus a fresh ID high-water mark.
func (s *Server) recoverFromWAL() {
	type replayState struct {
		submit   *walSubmit
		finished bool
	}
	states := map[string]*replayState{}
	var order []string
	maxID := 0
	for _, rec := range s.store.WAL.Recovered() {
		if n, ok := parseWALJobID(rec.JobID, "j"); ok && n > maxID {
			maxID = n
		}
		switch rec.Type {
		case walTypeNextID:
			var d walNextID
			if unmarshalWALData(rec.Data, &d) && d.N > maxID {
				maxID = d.N
			}
		case walTypeSubmitted:
			var d walSubmit
			if unmarshalWALData(rec.Data, &d) {
				if states[rec.JobID] == nil {
					states[rec.JobID] = &replayState{}
					order = append(order, rec.JobID)
				}
				states[rec.JobID].submit = &d
			}
		case walTypeTerminal, walTypeCancelRequested:
			if states[rec.JobID] == nil {
				states[rec.JobID] = &replayState{}
				order = append(order, rec.JobID)
			}
			states[rec.JobID].finished = true
		}
	}
	s.mu.Lock()
	if maxID > s.nextID {
		s.nextID = maxID
	}
	s.mu.Unlock()

	live := map[string]bool{}
	replayed := 0
	for _, id := range order {
		st := states[id]
		if st.finished || st.submit == nil {
			continue
		}
		// The job is rebuilt as a fresh submission of the normalized
		// circuit text, so this binary computes its cache key. A record
		// without a circuit, written in another format by an older binary,
		// does not load and is unrecoverable.
		w := st.submit
		j, err := s.newJob(SubmitRequest{Name: w.Name, Source: Source{Text: w.Circuit},
			Options: w.Options, TimeoutMS: w.TimeoutMS, NoCache: w.NoCache})
		if err != nil {
			s.cfg.Logger.Warn("wal replay: job unrecoverable", "job", id, "err", err)
			continue
		}
		// The original ID, so clients polling across the restart find
		// their job again.
		j.ID = id
		s.register(j)
		replayed++
		// The previous run may have completed an identical compile (this
		// job's own interrupted run never wrote the store — partial sweeps
		// are excluded at the write site). Serve it as done_cached, the
		// same disjoint counter a live cache hit lands in.
		if !j.req.NoCache {
			if p, ok := s.cache.Get(j.Key); ok {
				s.finishCached(j, p)
				s.log(j, "done", "cached", true, "replayed", true)
				continue
			}
		}
		if s.enqueue(j) {
			live[id] = true
			s.log(j, "replayed", "key", j.Key[:12])
			continue
		}
		s.mu.Lock()
		j.state = StateFailed
		j.errMsg = "queue full at recovery"
		j.finished = time.Now()
		s.finishLocked(j)
		s.mu.Unlock()
		s.metrics.jobsRejected.Inc()
		s.log(j, "rejected", "replayed", true)
	}
	if err := s.store.WAL.Compact(func(jobID string) bool { return live[jobID] }); err != nil {
		s.cfg.Logger.Warn("wal compaction failed", "err", err)
	}
	s.mu.Lock()
	nextID := s.nextID
	s.mu.Unlock()
	s.walAppend(walTypeNextID, "", walNextID{N: nextID})
	if replayed > 0 {
		s.cfg.Logger.Info("wal replayed", "jobs", replayed, "requeued", len(live))
	}
}

// finishCached completes a job instantly from a cached payload,
// re-labelled with the job's own name; the disjoint done_cached counter
// fires, never jobsDone. Shared by the submit fast path and WAL replay.
func (s *Server) finishCached(j *Job, p *ResultPayload) {
	s.mu.Lock()
	pp := *p
	pp.Name = j.Name
	pp.Report.Name = j.Name
	j.payload = &pp
	j.cached = true
	j.state = StateDone
	// No compile ran: both stamps are "now" so the status reports
	// RunMS=0 rather than inventing a run time.
	now := time.Now()
	j.started = now
	j.finished = now
	s.finishLocked(j)
	s.mu.Unlock()
	// Disjoint from jobsDone: a cache replay ran no compile, so it
	// counts only here (see TestDoneCountersDisjoint).
	s.metrics.jobsDoneCached.Inc()
	s.walTerminalFor(j, StateDone, true, "")
}

// parseWALJobID extracts the numeric suffix of a prefix-NNNNNN job ID.
func parseWALJobID(id, prefix string) (int, bool) {
	num, ok := strings.CutPrefix(id, prefix)
	if !ok || num == "" {
		return 0, false
	}
	n, err := strconv.Atoi(num)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// unmarshalWALData decodes a record's Data field, tolerating damage: a
// record that no longer decodes is skipped, not fatal.
func unmarshalWALData(raw []byte, v any) bool {
	if len(raw) == 0 {
		return false
	}
	return json.Unmarshal(raw, v) == nil
}
