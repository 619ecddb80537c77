package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for Prometheus semantics).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultLatencyBounds are the shared latency bucket upper bounds, in
// milliseconds. The final +Inf bucket is implicit.
var DefaultLatencyBounds = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}

// Histogram is a fixed-bucket histogram. Bucket counts are stored
// per-bucket (non-cumulative); the Prometheus exposition accumulates
// them into the required `le`-cumulative form on render.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // guarded by mu; len(bounds)+1; the last is +Inf
	sum    float64 // guarded by mu
	n      int64   // guarded by mu
}

// NewHistogram builds a histogram over the given ascending upper bounds
// (nil selects DefaultLatencyBounds).
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBounds
	}
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// ObserveDuration records a duration in milliseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// HistSnapshot is a consistent copy of a histogram's state.
type HistSnapshot struct {
	Bounds []float64 // upper bounds; the final +Inf bucket is implicit
	Counts []int64   // per-bucket (non-cumulative), len(Bounds)+1
	Sum    float64
	Count  int64
}

// Snapshot copies the histogram state under its lock.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistSnapshot{
		Bounds: h.bounds,
		Counts: append([]int64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.n,
	}
}

// HistogramVec is a family of histograms keyed by one label value
// (e.g. per-pipeline-stage latency).
type HistogramVec struct {
	mu     sync.Mutex
	label  string
	bounds []float64
	series map[string]*Histogram // guarded by mu
}

// With returns (creating on first use) the child histogram for a label
// value.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.series[value]
	if !ok {
		h = NewHistogram(v.bounds)
		v.series[value] = h
	}
	return h
}

// Snapshot copies every child keyed by label value.
func (v *HistogramVec) Snapshot() map[string]HistSnapshot {
	v.mu.Lock()
	names := make([]string, 0, len(v.series))
	for n := range v.series {
		names = append(names, n)
	}
	children := make(map[string]*Histogram, len(names))
	for _, n := range names {
		children[n] = v.series[n]
	}
	v.mu.Unlock()
	out := make(map[string]HistSnapshot, len(names))
	for n, h := range children {
		out[n] = h.Snapshot()
	}
	return out
}

// metricKind discriminates Prometheus metric families.
type metricKind int

const (
	kindCounter metricKind = iota
	kindCounterFunc
	kindGauge
	kindGaugeFunc
	kindHistogram
	kindHistogramVec
	kindHistogramFunc
)

func (k metricKind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one registered metric family.
type family struct {
	name, help string
	kind       metricKind
	counter    *Counter
	gauge      *Gauge
	valueFn    func() float64 // CounterFunc, GaugeFunc
	hist       *Histogram
	histFn     func() HistSnapshot
	vec        *HistogramVec
}

// Registry holds metric families in registration order and renders them
// in the Prometheus text exposition format. Registering a duplicate name
// panics: metric names are stable identifiers, like DRC rule names.
type Registry struct {
	mu     sync.Mutex
	fams   []*family          // guarded by mu
	byName map[string]*family // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

func (r *Registry) add(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[f.name]; dup {
		panic("obs: duplicate metric " + f.name)
	}
	r.byName[f.name] = f
	r.fams = append(r.fams, f)
}

// Counter registers and returns a counter. Names should follow the
// Prometheus convention and end in _total.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(&family{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// CounterFunc registers a counter whose value is read at scrape time,
// for a count another package keeps (names end in _total, as for
// Counter).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, kind: kindCounterFunc, valueFn: fn})
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.add(&family{name: name, help: help, kind: kindGauge, gauge: g})
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, kind: kindGaugeFunc, valueFn: fn})
}

// Histogram registers and returns a histogram (nil bounds selects
// DefaultLatencyBounds).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.add(&family{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// HistogramFunc registers a histogram whose full snapshot is computed
// at scrape time — the bridge for externally maintained distributions
// such as the runtime/metrics GC-pause histogram, whose buckets the
// runtime owns.
func (r *Registry) HistogramFunc(name, help string, fn func() HistSnapshot) {
	r.add(&family{name: name, help: help, kind: kindHistogramFunc, histFn: fn})
}

// HistogramVec registers and returns a one-label histogram family.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if bounds == nil {
		bounds = DefaultLatencyBounds
	}
	v := &HistogramVec{label: label, bounds: bounds, series: map[string]*Histogram{}}
	r.add(&family{name: name, help: help, kind: kindHistogramVec, vec: v})
	return v
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE headers, then the family's
// samples (`le`-cumulative histogram buckets ending in +Inf, and
// _sum/_count series). Scrape-time families (CounterFunc, GaugeFunc,
// HistogramFunc) are evaluated now.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.samples() {
			writeSample(&b, s)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSample renders one exposition line: name{label="value",...} value.
func writeSample(b *strings.Builder, s sample) {
	b.WriteString(s.Name)
	for i, l := range s.Labels {
		if i == 0 {
			b.WriteByte('{')
		} else {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, `%s="%s"`, l.Name, EscapeLabelValue(l.Value))
	}
	if len(s.Labels) > 0 {
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(s.Value))
	b.WriteByte('\n')
}

// EscapeLabelValue escapes a label value for the Prometheus text
// exposition format (version 0.0.4): backslash, double-quote, and
// line-feed become \\, \", and \n — and nothing else. Go's %q is close
// but wrong here: it also emits escapes the exposition grammar does not
// define (\t, \xNN, \uNNNN), which a conforming scraper rejects or
// reads literally. Label values arrive from the wild — worker IDs are
// operator-chosen strings — so this must be exact.
func EscapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	// Byte-wise, so bytes that are not valid UTF-8 pass through unchanged
	// and a conforming parser reads back exactly v.
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// label is one name=value pair attached to a sample.
type label struct{ Name, Value string }

// sample is one exposition line. Histogram families expand into their
// Prometheus-shaped series: cumulative `le`-labelled _bucket lines plus
// _sum and _count.
type sample struct {
	Name   string
	Labels []label // nil for unlabelled families
	Value  float64
}

// samples evaluates the family into its exposition lines. It holds the
// one switch over family kinds.
func (f *family) samples() []sample {
	switch f.kind {
	case kindCounter:
		return []sample{{Name: f.name, Value: float64(f.counter.Value())}}
	case kindGauge:
		return []sample{{Name: f.name, Value: float64(f.gauge.Value())}}
	case kindCounterFunc, kindGaugeFunc:
		return []sample{{Name: f.name, Value: f.valueFn()}}
	case kindHistogram:
		return appendHistSamples(nil, f.name, nil, f.hist.Snapshot())
	case kindHistogramFunc:
		return appendHistSamples(nil, f.name, nil, f.histFn())
	default: // kindHistogramVec
		snaps := f.vec.Snapshot()
		var s []sample
		for _, v := range sortedKeys(snaps) {
			s = appendHistSamples(s, f.name, []label{{Name: f.vec.label, Value: v}}, snaps[v])
		}
		return s
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// appendHistSamples flattens one histogram series the way the text
// exposition renders it: cumulative buckets, then _sum and _count.
func appendHistSamples(out []sample, name string, labels []label, s HistSnapshot) []sample {
	var cum int64
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		le := append(append([]label(nil), labels...), label{Name: "le", Value: formatFloat(bound)})
		out = append(out, sample{Name: name + "_bucket", Labels: le, Value: float64(cum)})
	}
	cum += s.Counts[len(s.Bounds)]
	le := append(append([]label(nil), labels...), label{Name: "le", Value: "+Inf"})
	out = append(out, sample{Name: name + "_bucket", Labels: le, Value: float64(cum)})
	out = append(out, sample{Name: name + "_sum", Labels: labels, Value: s.Sum})
	out = append(out, sample{Name: name + "_count", Labels: labels, Value: float64(s.Count)})
	return out
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// formatValue renders a sample value. Integral values print in full
// ("1000000", where formatFloat gives "1e+06"), so counts read as counts.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return formatFloat(v)
}
