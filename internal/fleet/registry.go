package fleet

import (
	"log/slog"
	"sync"
	"time"
)

// WorkerState is a worker's liveness as judged by the coordinator.
type WorkerState string

// Worker liveness states. A worker is alive while its heartbeats arrive
// on time, suspect once one is overdue (it keeps its running jobs but
// receives no new ones), and dead once the gap exceeds the dead
// threshold — at which point its in-flight jobs are re-dispatched and
// it leaves the routing set until it registers again.
const (
	WorkerAlive   WorkerState = "alive"
	WorkerSuspect WorkerState = "suspect"
	WorkerDead    WorkerState = "dead"
)

// WorkerInfo is the externally visible snapshot of one registered
// worker, served by /fleet/v1/workers and the /metrics JSON document.
type WorkerInfo struct {
	ID  string `json:"id"`
	URL string `json:"url"`
	// State is the coordinator's liveness judgement.
	State WorkerState `json:"state"`
	// Inflight counts jobs the coordinator has dispatched to this worker
	// and not yet seen terminal — the routing load signal.
	Inflight int `json:"inflight"`
	// Running and Queued are the worker's own last-reported load.
	Running int `json:"running"`
	Queued  int `json:"queued"`
	// HeartbeatAgeMS is how stale the last heartbeat is.
	HeartbeatAgeMS float64 `json:"heartbeat_age_ms"`
}

// workerEntry is the registry's mutable record for one worker.
type workerEntry struct {
	id       string
	url      string
	state    WorkerState
	inflight int
	running  int
	queued   int
	lastBeat time.Time
}

// registry tracks registered workers and their liveness. Liveness is
// advanced two ways: the sweep (called from the coordinator's monitor
// loop) ages heartbeats through alive → suspect → dead, and the
// dispatcher reports hard evidence directly (markSuspect on a failed
// call, markDead on a failover) without waiting for the thresholds.
type registry struct {
	metrics      *fleetMetrics
	logger       *slog.Logger
	suspectAfter time.Duration
	deadAfter    time.Duration

	mu      sync.Mutex
	workers map[string]*workerEntry // guarded by mu
}

func newRegistry(m *fleetMetrics, logger *slog.Logger, suspectAfter, deadAfter time.Duration) *registry {
	return &registry{
		metrics:      m,
		logger:       logger,
		suspectAfter: suspectAfter,
		deadAfter:    deadAfter,
		workers:      map[string]*workerEntry{},
	}
}

// register adds a worker or revives a known one. Re-registration after
// a coordinator restart (the worker's heartbeat got a 404) and after a
// death verdict both land here: the worker returns to the routing set
// immediately.
func (r *registry) register(id, url string) {
	r.mu.Lock()
	w, ok := r.workers[id]
	if !ok {
		w = &workerEntry{id: id}
		r.workers[id] = w
	}
	prev := w.state
	w.url = url
	w.state = WorkerAlive
	w.lastBeat = time.Now()
	r.updateGaugesLocked()
	r.mu.Unlock()
	r.metrics.registrations.Inc()
	r.logger.Info("worker registered", "worker", id, "url", url, "previous_state", string(prev))
}

// heartbeat records one worker heartbeat. It returns false for an
// unknown worker — the signal that tells an agent the coordinator has
// restarted and it must re-register.
func (r *registry) heartbeat(id string, running, queued int) bool {
	r.mu.Lock()
	w, ok := r.workers[id]
	if ok {
		if w.state != WorkerAlive {
			r.logger.Info("worker revived by heartbeat", "worker", id, "previous_state", string(w.state))
		}
		w.state = WorkerAlive
		w.lastBeat = time.Now()
		w.running = running
		w.queued = queued
		r.updateGaugesLocked()
	}
	r.mu.Unlock()
	if ok {
		r.metrics.heartbeats.Inc()
	}
	return ok
}

// sweep advances liveness by heartbeat age: alive workers whose last
// beat is older than suspectAfter become suspect, and suspect workers
// older than deadAfter become dead. It returns the IDs of workers that
// died in this sweep so the coordinator can fail over their jobs.
func (r *registry) sweep(now time.Time) (died []string) {
	r.mu.Lock()
	for _, w := range r.workers {
		age := now.Sub(w.lastBeat)
		switch w.state {
		case WorkerAlive:
			if age > r.suspectAfter {
				w.state = WorkerSuspect
				r.logger.Warn("worker suspect", "worker", w.id, "heartbeat_age", age)
			}
		case WorkerSuspect:
			if age > r.deadAfter {
				w.state = WorkerDead
				died = append(died, w.id)
			}
		}
	}
	r.updateGaugesLocked()
	r.mu.Unlock()
	for _, id := range died {
		r.metrics.workersDead.Inc()
		r.logger.Warn("worker dead", "worker", id)
	}
	return died
}

// markSuspect downgrades a worker on direct evidence (a failed dispatch
// or status poll); a later heartbeat revives it.
func (r *registry) markSuspect(id string) {
	r.mu.Lock()
	if w, ok := r.workers[id]; ok && w.state == WorkerAlive {
		w.state = WorkerSuspect
		r.logger.Warn("worker suspect", "worker", id, "reason", "call failed")
	}
	r.updateGaugesLocked()
	r.mu.Unlock()
}

// markDead declares a worker dead on direct evidence (repeated poll
// failures during a job). Registration or a heartbeat revives it.
func (r *registry) markDead(id string) {
	r.mu.Lock()
	w, ok := r.workers[id]
	wasDead := !ok || w.state == WorkerDead
	if ok && !wasDead {
		w.state = WorkerDead
	}
	r.updateGaugesLocked()
	r.mu.Unlock()
	if !wasDead {
		r.metrics.workersDead.Inc()
		r.logger.Warn("worker dead", "worker", id, "reason", "calls failed")
	}
}

// addInflight adjusts the coordinator-assigned in-flight count used as
// the routing load signal.
func (r *registry) addInflight(id string, delta int) {
	r.mu.Lock()
	if w, ok := r.workers[id]; ok {
		w.inflight += delta
		if w.inflight < 0 {
			w.inflight = 0
		}
	}
	r.mu.Unlock()
}

// state returns the worker's current liveness ("" when unknown).
func (r *registry) state(id string) WorkerState {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, ok := r.workers[id]; ok {
		return w.state
	}
	return ""
}

// alive snapshots the workers currently eligible for new dispatches.
func (r *registry) alive() []WorkerInfo {
	return r.snapshotIf(func(w *workerEntry) bool { return w.state == WorkerAlive })
}

// snapshot lists every registered worker, including suspect and dead
// ones, for the workers endpoint and the metrics document.
func (r *registry) snapshot() []WorkerInfo {
	return r.snapshotIf(func(*workerEntry) bool { return true })
}

func (r *registry) snapshotIf(keep func(*workerEntry) bool) []WorkerInfo {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerInfo, 0, len(r.workers))
	for _, w := range r.workers {
		if !keep(w) {
			continue
		}
		out = append(out, WorkerInfo{
			ID:             w.id,
			URL:            w.url,
			State:          w.state,
			Inflight:       w.inflight,
			Running:        w.running,
			Queued:         w.queued,
			HeartbeatAgeMS: float64(now.Sub(w.lastBeat)) / float64(time.Millisecond),
		})
	}
	return out
}

// updateGaugesLocked refreshes the liveness gauges; the caller holds
// r.mu.
func (r *registry) updateGaugesLocked() {
	var alive, suspect int64
	for _, w := range r.workers {
		switch w.state {
		case WorkerAlive:
			alive++
		case WorkerSuspect:
			suspect++
		}
	}
	r.metrics.workersAlive.Set(alive)
	r.metrics.workersSuspect.Set(suspect)
}
