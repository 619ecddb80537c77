package fleet

import (
	"testing"
	"time"

	"tqec/internal/obs"
)

func newTestRegistry(t *testing.T) (*registry, *fleetMetrics) {
	t.Helper()
	m := newFleetMetrics(obs.NewRegistry())
	return newRegistry(m, obs.NopLogger(), 50*time.Millisecond, 150*time.Millisecond), m
}

func TestRegistryLivenessTransitions(t *testing.T) {
	r, m := newTestRegistry(t)
	r.register("w-1", "http://w1")
	if got := r.state("w-1"); got != WorkerAlive {
		t.Fatalf("state after register = %s, want alive", got)
	}
	if m.workersAlive.Value() != 1 {
		t.Fatalf("workers_alive = %d, want 1", m.workersAlive.Value())
	}

	now := time.Now()
	// Within the suspect threshold nothing changes.
	if died := r.sweep(now.Add(20 * time.Millisecond)); len(died) != 0 || r.state("w-1") != WorkerAlive {
		t.Fatalf("early sweep changed state to %s (died %v)", r.state("w-1"), died)
	}
	// Past suspect-after: suspect, not yet dead.
	if died := r.sweep(now.Add(100 * time.Millisecond)); len(died) != 0 || r.state("w-1") != WorkerSuspect {
		t.Fatalf("suspect sweep: state %s (died %v), want suspect", r.state("w-1"), died)
	}
	if m.workersAlive.Value() != 0 || m.workersSuspect.Value() != 1 {
		t.Fatalf("gauges alive=%d suspect=%d, want 0/1", m.workersAlive.Value(), m.workersSuspect.Value())
	}
	// Past dead-after: dead, reported exactly once.
	died := r.sweep(now.Add(300 * time.Millisecond))
	if len(died) != 1 || died[0] != "w-1" || r.state("w-1") != WorkerDead {
		t.Fatalf("dead sweep: state %s, died %v", r.state("w-1"), died)
	}
	if died := r.sweep(now.Add(400 * time.Millisecond)); len(died) != 0 {
		t.Fatalf("second dead sweep re-reported %v", died)
	}
	if m.workersDead.Value() != 1 {
		t.Fatalf("workers_dead_total = %d, want 1", m.workersDead.Value())
	}
	if alive := r.alive(); len(alive) != 0 {
		t.Fatalf("dead worker still routable: %v", alive)
	}
}

func TestRegistryHeartbeatRevivesAndUnknownSignalsReregister(t *testing.T) {
	r, _ := newTestRegistry(t)
	if r.heartbeat("ghost", 0, 0) {
		t.Fatal("heartbeat from unknown worker accepted; want false (re-register signal)")
	}
	r.register("w-1", "http://w1")
	r.markDead("w-1")
	if r.state("w-1") != WorkerDead {
		t.Fatalf("state after markDead = %s", r.state("w-1"))
	}
	if !r.heartbeat("w-1", 2, 5) {
		t.Fatal("heartbeat from known worker rejected")
	}
	if r.state("w-1") != WorkerAlive {
		t.Fatalf("state after heartbeat = %s, want alive (revived)", r.state("w-1"))
	}
	snap := r.snapshot()
	if len(snap) != 1 || snap[0].Running != 2 || snap[0].Queued != 5 {
		t.Fatalf("snapshot = %+v, want running=2 queued=5", snap)
	}
}

func TestRegistryDirectEvidenceAndInflight(t *testing.T) {
	r, m := newTestRegistry(t)
	r.register("w-1", "http://w1")
	r.markSuspect("w-1")
	if r.state("w-1") != WorkerSuspect {
		t.Fatalf("state after markSuspect = %s", r.state("w-1"))
	}
	if alive := r.alive(); len(alive) != 0 {
		t.Fatalf("suspect worker still routable: %v", alive)
	}
	r.markDead("w-1")
	r.markDead("w-1") // idempotent: dead counted once
	if m.workersDead.Value() != 1 {
		t.Fatalf("workers_dead_total = %d, want 1 after double markDead", m.workersDead.Value())
	}

	r.register("w-1", "http://w1")
	r.addInflight("w-1", 3)
	r.addInflight("w-1", -5) // clamps at zero, never negative
	if got := r.snapshot()[0].Inflight; got != 0 {
		t.Fatalf("inflight = %d, want clamped 0", got)
	}
	r.addInflight("ghost", 1) // unknown worker: no-op, no panic
}
