package fleet

import "tqec/internal/obs"

// fleetMetrics are the tqecd_fleet_* families describing the distribution
// layer itself, registered on the coordinator's service registry beside
// its tqecd_jobs_* families (which count coordinator jobs). Per-worker
// compile metrics stay on each worker's /metrics.
type fleetMetrics struct {
	workersAlive   *obs.Gauge
	workersSuspect *obs.Gauge
	workersDead    *obs.Counter
	registrations  *obs.Counter
	heartbeats     *obs.Counter

	dispatches      *obs.Counter
	dispatchRetries *obs.Counter
	failovers       *obs.Counter
	// affinityRouted counts dispatches that landed on the rendezvous-hash
	// winner for the job's cache key; affinityFallback counts dispatches
	// diverted by exclusion (a failed worker) or the least-loaded
	// override. routed/(routed+fallback) is the affinity hit rate.
	affinityRouted   *obs.Counter
	affinityFallback *obs.Counter
}

func newFleetMetrics(reg *obs.Registry) *fleetMetrics {
	return &fleetMetrics{
		workersAlive:   reg.Gauge("tqecd_fleet_workers_alive", "Registered workers currently heartbeating."),
		workersSuspect: reg.Gauge("tqecd_fleet_workers_suspect", "Registered workers with overdue heartbeats, not yet declared dead."),
		workersDead:    reg.Counter("tqecd_fleet_workers_dead_total", "Workers declared dead after missing heartbeats."),
		registrations:  reg.Counter("tqecd_fleet_registrations_total", "Worker registrations accepted (including re-registrations)."),
		heartbeats:     reg.Counter("tqecd_fleet_heartbeats_total", "Worker heartbeats accepted."),

		dispatches:      reg.Counter("tqecd_fleet_dispatches_total", "Job submissions forwarded to a worker."),
		dispatchRetries: reg.Counter("tqecd_fleet_dispatch_retries_total", "Dispatch attempts retried after a worker was unavailable or unreachable."),
		failovers:       reg.Counter("tqecd_fleet_failovers_total", "Jobs re-dispatched to a different worker after their owner died mid-run."),

		affinityRouted:   reg.Counter("tqecd_fleet_affinity_routed_total", "Dispatches that landed on the rendezvous-hash winner for the cache key."),
		affinityFallback: reg.Counter("tqecd_fleet_affinity_fallback_total", "Dispatches diverted from the rendezvous winner (exclusion or load override)."),
	}
}
