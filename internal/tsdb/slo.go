package tsdb

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"tqec/internal/obs"
)

// Alert lifecycle states, in escalation order.
const (
	StateInactive = "inactive"
	StatePending  = "pending"
	StateFiring   = "firing"
)

func stateValue(s string) float64 {
	switch s {
	case StatePending:
		return 1
	case StateFiring:
		return 2
	default:
		return 0
	}
}

// Objective is one declarative SLO. Exactly one of the two shapes must
// be set: a ratio objective (Bad + Target, optionally Good) alerting on
// error-budget burn bad/(good+bad) ÷ (1−target), or a latency objective
// (Histogram + Quantile + ThresholdSeconds) alerting on an estimated
// quantile exceeding the threshold. The alert condition must hold in
// BOTH the fast and the slow window (multiwindow burn-rate alerting), and
// persist for ForSeconds before a pending alert escalates to firing.
type Objective struct {
	Name string `json:"name"`

	Good   []string `json:"good,omitempty"`
	Bad    []string `json:"bad,omitempty"`
	Target float64  `json:"target,omitempty"`

	Histogram        string  `json:"histogram,omitempty"`
	Quantile         float64 `json:"quantile,omitempty"`
	ThresholdSeconds float64 `json:"threshold_seconds,omitempty"`

	FastWindowSeconds float64 `json:"fast_window_seconds,omitempty"`
	SlowWindowSeconds float64 `json:"slow_window_seconds,omitempty"`
	ForSeconds        float64 `json:"for_seconds,omitempty"`
	BurnFactor        float64 `json:"burn_factor,omitempty"`
}

func (o Objective) fastWindow() time.Duration { return secondsOr(o.FastWindowSeconds, 60) }
func (o Objective) slowWindow() time.Duration { return secondsOr(o.SlowWindowSeconds, 300) }
func (o Objective) forDur() time.Duration     { return secondsOr(o.ForSeconds, 60) }

func (o Objective) factor() float64 {
	if o.BurnFactor > 0 {
		return o.BurnFactor
	}
	return 1
}

func secondsOr(s, def float64) time.Duration {
	if s <= 0 {
		s = def
	}
	return time.Duration(s * float64(time.Second))
}

// sloFile is the -slo JSON document: optional file-level window/for/
// factor defaults plus the objective list.
type sloFile struct {
	FastWindowSeconds float64     `json:"fast_window_seconds,omitempty"`
	SlowWindowSeconds float64     `json:"slow_window_seconds,omitempty"`
	ForSeconds        float64     `json:"for_seconds,omitempty"`
	BurnFactor        float64     `json:"burn_factor,omitempty"`
	Objectives        []Objective `json:"objectives"`
}

// LoadObjectives reads and validates a -slo JSON file.
func LoadObjectives(path string) ([]Objective, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	objs, err := ParseObjectives(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return objs, nil
}

// ParseObjectives parses the -slo document, folds file-level defaults
// into each objective, and validates.
func ParseObjectives(data []byte) ([]Objective, error) {
	var f sloFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	if len(f.Objectives) == 0 {
		return nil, fmt.Errorf("no objectives")
	}
	for i := range f.Objectives {
		o := &f.Objectives[i]
		if o.FastWindowSeconds == 0 {
			o.FastWindowSeconds = f.FastWindowSeconds
		}
		if o.SlowWindowSeconds == 0 {
			o.SlowWindowSeconds = f.SlowWindowSeconds
		}
		if o.ForSeconds == 0 {
			o.ForSeconds = f.ForSeconds
		}
		if o.BurnFactor == 0 {
			o.BurnFactor = f.BurnFactor
		}
		if err := o.validate(); err != nil {
			return nil, fmt.Errorf("objective %d (%q): %w", i, o.Name, err)
		}
	}
	return f.Objectives, nil
}

func (o Objective) validate() error {
	if o.Name == "" {
		return fmt.Errorf("missing name")
	}
	ratio := len(o.Bad) > 0
	latency := o.Histogram != ""
	switch {
	case ratio == latency:
		return fmt.Errorf("exactly one of bad+target (ratio) or histogram+quantile+threshold_seconds (latency) must be set")
	case ratio:
		if o.Target <= 0 || o.Target >= 1 {
			return fmt.Errorf("target must be in (0, 1), got %g", o.Target)
		}
	case latency:
		if o.Quantile <= 0 || o.Quantile >= 1 {
			return fmt.Errorf("quantile must be in (0, 1), got %g", o.Quantile)
		}
		if o.ThresholdSeconds <= 0 {
			return fmt.Errorf("threshold_seconds must be > 0, got %g", o.ThresholdSeconds)
		}
	}
	return nil
}

// AlertStatus is one objective's live state in the /v1/alerts document.
type AlertStatus struct {
	SLO         string  `json:"slo"`
	State       string  `json:"state"`
	SinceUnixMS int64   `json:"since_unix_ms,omitempty"`
	BurnFast    float64 `json:"burn_fast"`
	BurnSlow    float64 `json:"burn_slow"`
	ForSeconds  float64 `json:"for_seconds"`
}

// AlertEvent records one state transition (journal-style, bounded ring).
type AlertEvent struct {
	TimeUnixMS int64   `json:"time_unix_ms"`
	SLO        string  `json:"slo"`
	From       string  `json:"from"`
	To         string  `json:"to"`
	BurnFast   float64 `json:"burn_fast"`
	BurnSlow   float64 `json:"burn_slow"`
}

// AlertsDoc is the GET /v1/alerts payload.
type AlertsDoc struct {
	Alerts []AlertStatus `json:"alerts"`
	Events []AlertEvent  `json:"events"`
}

const maxAlertEvents = 256

type alertState struct {
	state    string
	since    time.Time
	burnFast float64
	burnSlow float64
}

// Engine evaluates objectives against the DB. Transitions are mirrored
// into tqecd_slo_* metric families on the given registry, logged via
// slog, and kept in a bounded event ring served alongside the alerts.
type Engine struct {
	db   *DB
	objs []Objective
	log  *slog.Logger

	mu     sync.Mutex
	states []*alertState
	events []AlertEvent

	alertState  *obs.GaugeVec
	burnFast    *obs.GaugeVec
	burnSlow    *obs.GaugeVec
	firing      *obs.Gauge
	transitions *obs.Counter
}

// NewEngine builds an engine over db. reg may be nil (no metric
// mirroring, used by tests); logger nil falls back to slog.Default.
func NewEngine(db *DB, objs []Objective, reg *obs.Registry, logger *slog.Logger) *Engine {
	if logger == nil {
		logger = slog.Default()
	}
	e := &Engine{db: db, objs: objs, log: logger}
	for range objs {
		e.states = append(e.states, &alertState{state: StateInactive})
	}
	if reg != nil {
		e.alertState = reg.GaugeVec("tqecd_slo_alert_state", "SLO alert state: 0 inactive, 1 pending, 2 firing.", "slo")
		e.burnFast = reg.GaugeVec("tqecd_slo_burn_rate_fast", "Error-budget burn rate over the fast window.", "slo")
		e.burnSlow = reg.GaugeVec("tqecd_slo_burn_rate_slow", "Error-budget burn rate over the slow window.", "slo")
		e.firing = reg.Gauge("tqecd_slo_alerts_firing", "Number of SLO alerts currently firing.")
		e.transitions = reg.Counter("tqecd_slo_transitions_total", "Total SLO alert state transitions.")
	}
	return e
}

// Eval recomputes every objective's burn rates as of now and advances the
// alert state machine: inactive → pending when the condition first holds
// in both windows, pending → firing once it has held for the objective's
// `for` duration, any state → inactive when it stops holding.
func (e *Engine) Eval(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	firing := 0
	for i, obj := range e.objs {
		st := e.states[i]
		st.burnFast = e.burn(obj, now, obj.fastWindow())
		st.burnSlow = e.burn(obj, now, obj.slowWindow())
		cond := st.burnFast >= obj.factor() && st.burnSlow >= obj.factor()
		next := st.state
		switch {
		case !cond:
			next = StateInactive
		case st.state == StateInactive:
			next = StatePending
		case st.state == StatePending && now.Sub(st.since) >= obj.forDur():
			next = StateFiring
		}
		if next != st.state {
			e.transitionLocked(st, obj, next, now)
		}
		if st.state == StateFiring {
			firing++
		}
		if e.alertState != nil {
			e.alertState.With(obj.Name).Set(stateValue(st.state))
			e.burnFast.With(obj.Name).Set(st.burnFast)
			e.burnSlow.With(obj.Name).Set(st.burnSlow)
		}
	}
	if e.firing != nil {
		e.firing.Set(int64(firing))
	}
}

func (e *Engine) transitionLocked(st *alertState, obj Objective, next string, now time.Time) {
	prev := st.state
	st.state = next
	st.since = now
	if e.transitions != nil {
		e.transitions.Inc()
	}
	e.events = append(e.events, AlertEvent{
		TimeUnixMS: now.UnixMilli(),
		SLO:        obj.Name,
		From:       prev,
		To:         next,
		BurnFast:   st.burnFast,
		BurnSlow:   st.burnSlow,
	})
	if len(e.events) > maxAlertEvents {
		e.events = e.events[len(e.events)-maxAlertEvents:]
	}
	args := []any{
		"slo", obj.Name, "from", prev, "to", next,
		"burn_fast", st.burnFast, "burn_slow", st.burnSlow,
	}
	if next == StateInactive {
		e.log.Info("slo alert transition", args...)
	} else {
		e.log.Warn("slo alert transition", args...)
	}
}

func (e *Engine) burn(obj Objective, now time.Time, window time.Duration) float64 {
	start := now.Add(-window)
	if obj.Histogram != "" {
		q := e.histQuantile(obj, start, now)
		if math.IsNaN(q) {
			return 0
		}
		return q / obj.ThresholdSeconds
	}
	bad := e.sumIncrease(obj.Bad, start, now)
	total := bad + e.sumIncrease(obj.Good, start, now)
	if total <= 0 {
		return 0 // no traffic in the window — no evidence of burn
	}
	return (bad / total) / (1 - obj.Target)
}

func (e *Engine) sumIncrease(names []string, start, end time.Time) float64 {
	var sum float64
	for _, name := range names {
		for _, f := range e.db.Query(Selector{Name: name}, start, end, 0) {
			sum += Increase(f.Points)
		}
	}
	return sum
}

func (e *Engine) histQuantile(obj Objective, start, end time.Time) float64 {
	return HistogramQuantile(obj.Quantile, e.db.Query(Selector{Name: obj.Histogram + "_bucket"}, start, end, 0))
}

// HistogramQuantile estimates quantile q over the increase of a
// histogram's _bucket frames. Each frame's Increase is summed per `le`
// bound across every frame (workers, vec children): cumulativity in le
// survives both subtraction and addition, so the merged buckets stay a
// valid histogram. Frames without an le label are ignored. NaN means no
// observations.
func HistogramQuantile(q float64, frames []Frame) float64 {
	acc := map[float64]float64{}
	for _, f := range frames {
		le, ok := leBound(f.Labels)
		if !ok {
			continue
		}
		acc[le] += Increase(f.Points)
	}
	buckets := make([]Bucket, 0, len(acc))
	for b, c := range acc {
		buckets = append(buckets, Bucket{UpperBound: b, Count: c})
	}
	return EstimateQuantile(q, buckets)
}

func leBound(labels []obs.Label) (float64, bool) {
	for _, l := range labels {
		if l.Name != "le" {
			continue
		}
		if l.Value == "+Inf" {
			return math.Inf(1), true
		}
		v, err := strconv.ParseFloat(l.Value, 64)
		return v, err == nil
	}
	return 0, false
}

// Bucket is one cumulative histogram bucket: Count observations with
// value ≤ UpperBound (math.Inf(1) for the +Inf bucket).
type Bucket struct {
	UpperBound float64
	Count      float64
}

// EstimateQuantile returns the linear-interpolation estimate of quantile
// q from cumulative buckets (Prometheus histogram_quantile semantics).
// It returns NaN when there are no buckets or no observations. When the
// quantile lands in the +Inf bucket the highest finite bound is returned
// — the histogram cannot resolve beyond it.
func EstimateQuantile(q float64, buckets []Bucket) float64 {
	if len(buckets) == 0 {
		return math.NaN()
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].UpperBound < buckets[j].UpperBound })
	total := buckets[len(buckets)-1].Count
	if total <= 0 || math.IsNaN(total) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * total
	idx := 0
	for idx < len(buckets)-1 && buckets[idx].Count < rank {
		idx++
	}
	if math.IsInf(buckets[idx].UpperBound, 1) {
		if idx == 0 {
			return math.NaN()
		}
		return buckets[idx-1].UpperBound
	}
	lower, prev := 0.0, 0.0
	if idx > 0 {
		lower = buckets[idx-1].UpperBound
		prev = buckets[idx-1].Count
	}
	inBucket := buckets[idx].Count - prev
	if inBucket <= 0 {
		return buckets[idx].UpperBound
	}
	return lower + (buckets[idx].UpperBound-lower)*(rank-prev)/inBucket
}

// Snapshot returns the live alerts document.
func (e *Engine) Snapshot() AlertsDoc {
	e.mu.Lock()
	defer e.mu.Unlock()
	doc := AlertsDoc{Alerts: make([]AlertStatus, 0, len(e.objs)), Events: append([]AlertEvent{}, e.events...)}
	for i, obj := range e.objs {
		st := e.states[i]
		a := AlertStatus{
			SLO:        obj.Name,
			State:      st.state,
			BurnFast:   st.burnFast,
			BurnSlow:   st.burnSlow,
			ForSeconds: obj.forDur().Seconds(),
		}
		if !st.since.IsZero() {
			a.SinceUnixMS = st.since.UnixMilli()
		}
		doc.Alerts = append(doc.Alerts, a)
	}
	return doc
}

// HandleAlerts serves GET /v1/alerts.
func HandleAlerts(e *Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(e.Snapshot())
	}
}
