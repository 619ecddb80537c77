// Package fleet turns tqecd into a horizontally scaled compile fleet: a
// coordinator that serves the /v1 job API and dispatches every job over
// HTTP to registered workers, each of which is an ordinary single-process
// tqecd (internal/service.Server).
//
// The coordinator is itself a service.Server: the job table, IDs,
// retention, the /v1 handlers, the WAL and its replay, metrics and drain
// all run the service's code. What this package adds is the Runner that
// replaces the in-process compile with dispatch, and the membership
// around it.
//
// The pipeline is embarrassingly parallel across jobs and seeds, and the
// NP-hardness of optimal braided-circuit compaction means throughput
// comes from scale-out search rather than a smarter single node — so the
// distribution layer stays deliberately simple:
//
//   - Workers register (POST /fleet/v1/register) and heartbeat
//     (POST /fleet/v1/heartbeat); the coordinator judges each worker
//     alive, suspect, or dead from heartbeat age and direct call
//     failures.
//   - Routing is rendezvous hashing on the job's content-addressed cache
//     key, so a repeat submission lands on the worker whose local result
//     cache already holds the answer (cache affinity), with a
//     least-loaded override when the affinity target is overloaded.
//   - Dispatch failures and dead workers trigger bounded retry with
//     jittered exponential backoff and re-dispatch to a different
//     worker. Because the pipeline is deterministic for a fixed seed
//     list and results are content-addressed, re-running a job on
//     another worker is always safe: dispatch is at-least-once, results
//     are exactly-one-answer.
//   - Cancellation (DELETE) ends the job's run, which forwards it to the
//     owning worker; SSE event streams and traces are served from the
//     owning worker (traces stitched under the coordinator's dispatch
//     spans).
//
// Coordinator endpoints beyond the service's:
//
//	GET    /v1/jobs/{id}/events   SSE stream proxied from the owning worker
//	                              (the coordinator's dispatch journal until
//	                              the job is dispatched)
//	GET    /v1/jobs/{id}/trace    coordinator spans with the worker's
//	                              pipeline tree grafted under the last
//	                              dispatch span
//	POST   /fleet/v1/register     worker registration
//	POST   /fleet/v1/heartbeat    worker heartbeat (404 → re-register)
//	GET    /fleet/v1/workers      registered workers and their liveness
//	GET    /healthz               coordinator liveness + fleet summary
package fleet

import (
	"context"
	"log/slog"
	"net/http"
	"os"
	"time"

	"tqec/internal/obs"
	"tqec/internal/service"
)

// Config tunes the coordinator. Zero values select defaults.
type Config struct {
	// Config is the coordinator's job service. By default (Workers 0)
	// every admitted job dispatches at once: a dispatch waits on a worker,
	// not on this machine's CPUs, and each worker bounds and queues its
	// own load. A positive Workers caps concurrent dispatches, and
	// QueueDepth then bounds the jobs waiting for one. Store carries only
	// the WAL (open it NoResults). The coordinator never caches results,
	// so CacheEntries is ignored, and Runner is the coordinator itself.
	service.Config
	// Logger receives structured coordinator log lines; it overrides
	// Config.Logger (default: text handler on stderr).
	Logger *slog.Logger

	// HeartbeatInterval is the cadence workers are told to beat at
	// (default 2s); it also paces the liveness sweep.
	HeartbeatInterval time.Duration
	// SuspectAfter is the heartbeat age at which an alive worker becomes
	// suspect and stops receiving new jobs (default 3×HeartbeatInterval).
	SuspectAfter time.Duration
	// DeadAfter is the heartbeat age at which a suspect worker is
	// declared dead and its in-flight jobs fail over (default
	// 3×SuspectAfter).
	DeadAfter time.Duration
	// PollInterval paces the coordinator's status polls of a dispatched
	// job (default 200ms).
	PollInterval time.Duration
	// DispatchAttempts bounds how many dispatch rounds — initial
	// dispatch, retries, and mid-job failovers combined — one job may
	// consume before it is failed (default 3).
	DispatchAttempts int
	// Backoff shapes dispatch-retry delays.
	Backoff Backoff
}

const (
	// pollFailures is how many consecutive failed status polls declare
	// the owning worker dead and trigger failover.
	pollFailures = 3
	// maxImbalance is the in-flight gap beyond which the least-loaded
	// worker overrides the rendezvous (affinity) choice.
	maxImbalance = 8
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = -1 // no dispatch cap
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * c.HeartbeatInterval
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3 * c.SuspectAfter
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 200 * time.Millisecond
	}
	if c.DispatchAttempts <= 0 {
		c.DispatchAttempts = 3
	}
	if c.Logger == nil {
		c.Logger = c.Config.Logger
	}
	if c.Logger == nil {
		l, err := obs.NewLogger(obs.LogConfig{Writer: os.Stderr})
		if err != nil { // unreachable with the zero config
			panic(err)
		}
		c.Logger = l
	}
	return c
}

// Coordinator is the fleet's front door: a service.Server whose Runner
// dispatches to workers. Create with NewCoordinator, mount via Handler,
// stop with Shutdown (graceful) or Close (immediate).
type Coordinator struct {
	*service.Server

	cfg     Config
	metrics *fleetMetrics
	reg     *registry
	mux     *http.ServeMux
	// http performs worker calls. It has no global timeout: per-call
	// contexts bound every request.
	http *http.Client

	ctx         context.Context // ends the liveness monitor
	cancel      context.CancelFunc
	monitorDone chan struct{}
}

// NewCoordinator starts the coordinator: ctx is its root context —
// cancelling it abandons every in-flight dispatch.
func NewCoordinator(ctx context.Context, cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{cfg: cfg, http: &http.Client{}, monitorDone: make(chan struct{})}
	c.ctx, c.cancel = context.WithCancel(ctx)
	sc := cfg.Config
	sc.Logger = cfg.Logger
	sc.CacheEntries = -1 // results are cached worker-side
	sc.Runner = c
	// New calls c.Attach, which sets c.Server, before WAL replay can run a
	// job.
	service.New(ctx, sc)
	c.mux = c.routes()
	go c.monitor()
	return c
}

// Attach wires the coordinator into its service.Server: the fleet
// families join the server's registry.
func (c *Coordinator) Attach(s *service.Server) {
	c.Server = s
	c.metrics = newFleetMetrics(s.Registry())
	c.reg = newRegistry(c.metrics, c.cfg.Logger, c.cfg.SuspectAfter, c.cfg.DeadAfter)
}

// Handler returns the HTTP surface.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// Shutdown drains the job service (see service.Server.Shutdown), then
// stops the liveness monitor, which in-flight dispatches rely on until
// the drain ends.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	err := c.Server.Shutdown(ctx)
	c.stopMonitor()
	return err
}

// Close abandons everything in flight and waits for it to stop.
func (c *Coordinator) Close() {
	c.Server.Close()
	c.stopMonitor()
}

func (c *Coordinator) stopMonitor() {
	c.cancel()
	<-c.monitorDone
}

// monitor ages worker liveness on a fixed cadence. Dispatches observe
// death verdicts on their next poll tick and fail their jobs over.
func (c *Coordinator) monitor() {
	defer close(c.monitorDone)
	period := c.cfg.HeartbeatInterval / 2
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.reg.sweep(time.Now())
		case <-c.ctx.Done():
			return
		}
	}
}

// workerClient returns a protocol client for one worker.
func (c *Coordinator) workerClient(baseURL string) *service.Client {
	return &service.Client{BaseURL: baseURL, HTTPClient: c.http}
}
