// Package metricname is a tqec-vet fixture: obs registry metric names
// must be literals in the tqec[cd]?_* scheme (or go_* for runtime
// self-telemetry), counters end in _total and gauges do not, duration
// histograms end in _seconds or _ms.
package metricname

import "tqec/internal/obs"

func Register(r *obs.Registry) {
	r.Counter("tqecd_jobs_total", "ok")
	r.Counter("tqec_compiles_total", "ok: library prefix")
	r.Counter("tqecd_jobs", "missing suffix")  // want "must end in _total"
	r.Counter("jobs_total", "missing prefix")  // want "does not match"
	r.Counter("tqecd_Jobs_total", "uppercase") // want "does not match"
	r.Gauge("tqecd_queue_depth", "ok")
	r.Gauge("tqecx_queue_depth", "bad subsystem") // want "does not match"
	r.Gauge("go_goroutines", "ok: runtime self-telemetry prefix")
	r.Gauge("golang_goroutines", "bad runtime prefix") // want "does not match"
	r.Histogram("tqecd_compile_ms", "ok", nil)
	r.Histogram("tqecd_compile_seconds", "ok", nil)
	r.Histogram("tqecd_compile", "no unit", nil) // want "_seconds or _ms"
	r.HistogramVec("tqecd_stage_ms", "ok", "stage", nil)
	r.HistogramVec("tqecd_stage", "no unit", "stage", nil) // want "_seconds or _ms"
	r.HistogramFunc("go_gc_pauses_seconds", "ok", func() obs.HistSnapshot { return obs.HistSnapshot{} })
	r.HistogramFunc("go_gc_pauses", "no unit", func() obs.HistSnapshot { return obs.HistSnapshot{} }) // want "_seconds or _ms"
	name := dynamicName()
	r.Counter(name, "computed") // want "string literal"
	r.GaugeFunc("tqecd_uptime_seconds", "ok", func() float64 { return 0 })
	r.Gauge("tqecd_fleet_workers_alive", "ok: fleet liveness gauge")
	r.Gauge("workers_alive", "missing prefix") // want "does not match"
	r.Counter("tqecd_journal_dropped_events_total", "ok: journal health family")
	r.Counter("tqecd_slo_transitions", "missing suffix") // want "must end in _total"
	r.CounterFunc("tqecd_store_hits_total", "ok: scrape-time counter", func() float64 { return 0 })
	r.CounterFunc("tqecd_store_hits", "missing suffix", func() float64 { return 0 })           // want "must end in _total"
	r.GaugeFunc("tqecd_store_misses_total", "a count as a gauge", func() float64 { return 0 }) // want "ends in _total"
	r.Gauge("tqecd_writes_total", "a count as a gauge")                                        // want "ends in _total"
}

func dynamicName() string { return "tqecd_dynamic_total" }
