// Package tsdb is a zero-dependency, bounded-memory time-series store
// for metrics history. Every series holds its samples in a fixed-capacity
// ring, so memory is bounded by (series count × capacity) regardless of
// uptime; the series count itself is capped, with refusals counted. The
// store is label-keyed and kind-aware (counter vs gauge): counter resets
// are handled at query time by Increase, and series that have stopped
// advancing while the store keeps receiving scrapes are marked stale.
package tsdb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"tqec/internal/obs"
)

// Point is one timestamped value. T is unix milliseconds.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// Series is one named, labelled stream of points retained in a
// fixed-capacity ring (oldest samples evicted first).
type Series struct {
	Name   string
	Labels []obs.Label // sorted by label name
	Kind   string      // obs.SampleCounter or obs.SampleGauge

	buf  []Point
	head int // next write slot
	n    int // live samples, ≤ len(buf)
}

func (s *Series) push(p Point) {
	s.buf[s.head] = p
	s.head = (s.head + 1) % len(s.buf)
	if s.n < len(s.buf) {
		s.n++
	}
}

// points returns the retained samples oldest-first.
func (s *Series) points() []Point {
	out := make([]Point, 0, s.n)
	start := s.head - s.n
	if start < 0 {
		start += len(s.buf)
	}
	for i := 0; i < s.n; i++ {
		out = append(out, s.buf[(start+i)%len(s.buf)])
	}
	return out
}

func (s *Series) last() (Point, bool) {
	if s.n == 0 {
		return Point{}, false
	}
	i := s.head - 1
	if i < 0 {
		i += len(s.buf)
	}
	return s.buf[i], true
}

// Defaults for New and the series-count bound.
const (
	DefaultCapacity  = 512
	DefaultMaxSeries = 8192
)

// DB is the store. All methods are safe for concurrent use.
type DB struct {
	mu            sync.RWMutex
	capacity      int
	maxSeries     int
	staleAfter    time.Duration
	series        map[string]*Series
	lastT         int64 // unix ms of the newest sample appended anywhere
	droppedSeries int64
}

// New returns a store whose series each retain up to capacity samples.
// capacity ≤ 0 selects DefaultCapacity.
func New(capacity int) *DB {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &DB{
		capacity:  capacity,
		maxSeries: DefaultMaxSeries,
		series:    make(map[string]*Series),
	}
}

// SetStaleAfter sets the gap after which a series that has stopped
// advancing — while the store keeps receiving newer samples elsewhere —
// is marked stale in query results. Zero disables stale marking.
func (db *DB) SetStaleAfter(d time.Duration) {
	db.mu.Lock()
	db.staleAfter = d
	db.mu.Unlock()
}

// Stats reports the live series count and how many new-series creations
// were refused by the bound.
func (db *DB) Stats() (series int, droppedSeries int64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.series), db.droppedSeries
}

func seriesKey(name string, labels []obs.Label) string {
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Name)
		b.WriteByte(1)
		b.WriteString(l.Value)
	}
	return b.String()
}

func sortedLabels(labels []obs.Label) []obs.Label {
	if len(labels) == 0 {
		return nil
	}
	out := append([]obs.Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Append records one sample. The series is created on first append; its
// kind is fixed then. Appends to new series beyond the series bound are
// dropped and counted.
func (db *DB) Append(name string, labels []obs.Label, kind string, t time.Time, v float64) {
	labels = sortedLabels(labels)
	key := seriesKey(name, labels)
	ms := t.UnixMilli()
	db.mu.Lock()
	defer db.mu.Unlock()
	s, ok := db.series[key]
	if !ok {
		if len(db.series) >= db.maxSeries {
			db.droppedSeries++
			return
		}
		s = &Series{Name: name, Labels: labels, Kind: kind, buf: make([]Point, db.capacity)}
		db.series[key] = s
	}
	s.push(Point{T: ms, V: v})
	if ms > db.lastT {
		db.lastT = ms
	}
}

// AppendSamples records a whole gathered scrape at time t, tagging every
// sample with the extra labels (e.g. worker="w1" on the coordinator).
func (db *DB) AppendSamples(t time.Time, samples []obs.Sample, extra ...obs.Label) {
	for _, s := range samples {
		labels := s.Labels
		if len(extra) > 0 {
			labels = append(append([]obs.Label(nil), labels...), extra...)
		}
		db.Append(s.Name, labels, s.Kind, t, s.Value)
	}
}

// Selector picks series by name (exact, or prefix when the query ends
// with '*') plus label equality matchers.
type Selector struct {
	Name   string
	Prefix bool
	Labels []obs.Label
}

// ParseSelector parses `name`, `name*`, or `name{label="value",...}`.
// The label set is read by obs.ParseLabels, so values use the exposition
// escapes \\, \", and \n.
func ParseSelector(q string) (Selector, error) {
	q = strings.TrimSpace(q)
	if q == "" {
		return Selector{}, fmt.Errorf("empty selector")
	}
	var sel Selector
	name := q
	if i := strings.IndexByte(q, '{'); i >= 0 {
		labels, rest, err := obs.ParseLabels(q[i:])
		if err == nil && strings.TrimSpace(rest) != "" {
			err = fmt.Errorf("unexpected %q after the label set", rest)
		}
		if err != nil {
			return Selector{}, fmt.Errorf("selector %q: %w", q, err)
		}
		name, sel.Labels = q[:i], labels
	}
	if strings.HasSuffix(name, "*") {
		sel.Prefix = true
		name = strings.TrimSuffix(name, "*")
	}
	if name == "" && !sel.Prefix {
		return Selector{}, fmt.Errorf("selector %q: missing metric name", q)
	}
	sel.Name = name
	return sel, nil
}

func (sel Selector) matches(s *Series) bool {
	if sel.Prefix {
		if !strings.HasPrefix(s.Name, sel.Name) {
			return false
		}
	} else if s.Name != sel.Name {
		return false
	}
	for _, m := range sel.Labels {
		ok := false
		for _, l := range s.Labels {
			if l.Name == m.Name {
				ok = l.Value == m.Value
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Frame is one series' slice of a range query.
type Frame struct {
	Name   string      `json:"name"`
	Labels []obs.Label `json:"labels,omitempty"`
	Kind   string      `json:"kind"`
	Stale  bool        `json:"stale"`
	Points []Point     `json:"points"`
}

// Query returns matching series restricted to [start, end], sorted by
// name then labels. step ≤ 0 returns raw samples; step > 0 downsamples
// to the last sample in each (t−step, t] bucket, skipping empty buckets
// (gaps stay gaps). Series with no samples in the window are omitted. A
// series whose newest retained sample trails the store's write cursor by
// more than the configured staleness gap is flagged Stale — on a
// coordinator this is how a dead worker's history is marked.
func (db *DB) Query(sel Selector, start, end time.Time, step time.Duration) []Frame {
	startMS, endMS := start.UnixMilli(), end.UnixMilli()
	db.mu.RLock()
	defer db.mu.RUnlock()
	var frames []Frame
	for _, s := range db.series {
		if !sel.matches(s) {
			continue
		}
		pts := s.points()
		lo := sort.Search(len(pts), func(i int) bool { return pts[i].T >= startMS })
		hi := sort.Search(len(pts), func(i int) bool { return pts[i].T > endMS })
		var window []Point
		if step > 0 {
			window = downsample(pts[lo:hi], startMS, endMS, step.Milliseconds())
		} else {
			window = append([]Point{}, pts[lo:hi]...)
		}
		if len(window) == 0 {
			continue
		}
		stale := false
		if db.staleAfter > 0 {
			if last, ok := s.last(); ok && db.lastT-last.T > db.staleAfter.Milliseconds() {
				stale = true
			}
		}
		frames = append(frames, Frame{Name: s.Name, Labels: s.Labels, Kind: s.Kind, Stale: stale, Points: window})
	}
	sort.Slice(frames, func(i, j int) bool {
		if frames[i].Name != frames[j].Name {
			return frames[i].Name < frames[j].Name
		}
		return seriesKey("", frames[i].Labels) < seriesKey("", frames[j].Labels)
	})
	return frames
}

func downsample(pts []Point, startMS, endMS, stepMS int64) []Point {
	var out []Point
	j := 0
	for bucketEnd := startMS + stepMS; bucketEnd-stepMS < endMS; bucketEnd += stepMS {
		var pick *Point
		for j < len(pts) && pts[j].T <= bucketEnd {
			if pts[j].T > bucketEnd-stepMS {
				pick = &pts[j]
			}
			j++
		}
		if pick != nil {
			out = append(out, Point{T: bucketEnd, V: pick.V})
		}
	}
	return out
}

// Deltas returns a counter series' increase at each point after the
// first, tolerating counter resets: a decrease means the process behind
// the counter restarted, so the post-reset value counts in full. Apply it
// to each series before summing series, so one process restarting reads
// as its own reset, not everyone's.
func Deltas(pts []Point) []Point {
	out := make([]Point, 0, max(len(pts)-1, 0))
	for i := 1; i < len(pts); i++ {
		d := pts[i].V - pts[i-1].V
		if d < 0 {
			d = pts[i].V
		}
		out = append(out, Point{T: pts[i].T, V: d})
	}
	return out
}

// Increase returns the total increase of a counter series over the given
// points: the sum of its Deltas.
func Increase(pts []Point) float64 {
	var inc float64
	for _, d := range Deltas(pts) {
		inc += d.V
	}
	return inc
}
