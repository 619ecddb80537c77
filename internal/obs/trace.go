// Package obs is the observability layer of the compiler and the tqecd
// service: the instrumentation probe carried through context.Context (a
// span tree plus the sink that consumes its stream), a metrics registry
// with Prometheus text exposition, a shared log/slog handler
// configuration, and a pprof debug mux.
//
// The probe is the one thing the pipeline emits to. A span is one fact
// with a duration (a stage, an annealing epoch, a routing round) and a
// warning is one fact without one. A Tracer keeps the spans as a tree for
// export; a Sink (the journal's Recorder) sees every span start, span end
// and warning as it happens. Either or both may be installed in a
// context, in any order.
//
// The package is zero-dependency (stdlib only) and designed around a nil
// fast path: when neither a tracer nor a sink has been installed in the
// context, every call site reduces to a nil check, so the instrumented
// pipeline is bit-identical in output and free of measurable overhead for
// unobserved compiles. Instrumentation must never consume randomness or
// otherwise perturb the algorithmic state it observes.
package obs

import (
	"context"
	"sync"
	"time"
)

// Attr is one span attribute. Values should be small scalars (ints,
// floats, strings, bools) so exports stay cheap.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Sink consumes the probe stream of the contexts it is installed in
// (WithSink): the start and end of every span opened through such a
// context or below one of its spans, and every Warn. Calls arrive on the
// emitting goroutine, outside any obs lock; a sink must not block. A
// span's attributes are complete when SpanEnded runs.
type Sink interface {
	SpanStarted(sp *Span)
	SpanEnded(sp *Span)
	Warning(sp *Span, code, message string)
}

// Span is one timed node of a trace tree. Fields are written under the
// owning tracer's lock while the traced work runs; read them only after
// the work completes (or via Tracer export methods, which lock).
//
// A span exists whenever a tracer or a sink observes the work; one that
// only a sink observes has no tracer and keeps no children.
//
// All methods are safe on a nil receiver and do nothing, which is what
// makes call sites cheap when nothing observes them.
type Span struct {
	Name      string
	StartTime time.Time
	EndTime   time.Time // zero until End is called
	Attrs     []Attr
	Children  []*Span

	tracer *Tracer // nil when only a sink observes the span
	sink   Sink    // nil when only a tracer observes the span
	parent *Span
}

// Tracer owns one trace tree. Create one per traced unit of work (a
// compile, a job) with NewTracer; concurrent spans of the same tracer
// are synchronized internally, and distinct tracers share no state, so
// concurrent compiles with separate tracers can never interleave spans.
type Tracer struct {
	mu   sync.Mutex
	root *Span
}

// NewTracer starts a trace whose root span has the given name.
func NewTracer(name string) *Tracer {
	t := &Tracer{}
	t.root = &Span{Name: name, StartTime: time.Now(), tracer: t}
	return t
}

// Root returns the root span (never nil for a non-nil tracer).
func (t *Tracer) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span. Idempotent.
func (t *Tracer) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.root.EndTime.IsZero() {
		t.root.EndTime = time.Now()
	}
	t.mu.Unlock()
}

// lock and unlock guard s's mutable fields with its tracer's lock. A span
// without a tracer is written only by the goroutine that opened it.
func (s *Span) lock() {
	if s.tracer != nil {
		s.tracer.mu.Lock()
	}
}

func (s *Span) unlock() {
	if s.tracer != nil {
		s.tracer.mu.Unlock()
	}
}

// StartChild opens a child span under s that reports to s's sink.
// Returns nil when s is nil.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return open(s, name, s.sink)
}

// open starts a span named name under parent (nil for a top-level span
// that only a sink sees) and announces it to sink.
func open(parent *Span, name string, sink Sink) *Span {
	c := &Span{Name: name, StartTime: time.Now(), sink: sink, parent: parent}
	if parent != nil && parent.tracer != nil {
		c.tracer = parent.tracer
		parent.lock()
		parent.Children = append(parent.Children, c)
		parent.unlock()
	}
	if sink != nil {
		sink.SpanStarted(c)
	}
	return c
}

// End closes the span and reports it to its sink. Idempotent; no-op on
// nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.lock()
	first := s.EndTime.IsZero()
	if first {
		s.EndTime = time.Now()
	}
	s.unlock()
	if first && s.sink != nil {
		s.sink.SpanEnded(s)
	}
}

// SetAttr attaches a key/value attribute. No-op on nil.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.lock()
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
	s.unlock()
}

// Lookup returns the latest value of attribute key on s or, failing
// that, on its nearest ancestor that has one.
func (s *Span) Lookup(key string) (any, bool) {
	if s == nil {
		return nil, false
	}
	for p := s; p != nil; p = p.parent {
		p.lock()
		for i := len(p.Attrs) - 1; i >= 0; i-- {
			if p.Attrs[i].Key == key {
				v := p.Attrs[i].Value
				p.unlock()
				return v, true
			}
		}
		p.unlock()
	}
	return nil, false
}

// Find returns the spans named name in s's subtree (depth-first,
// including s itself). Intended for tests and tools after tracing ends.
func (s *Span) Find(name string) []*Span {
	if s == nil {
		return nil
	}
	var out []*Span
	var walk func(*Span)
	walk = func(sp *Span) {
		if sp.Name == name {
			out = append(out, sp)
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(s)
	return out
}

// Duration is EndTime−StartTime; for an unfinished span it extends to the
// latest child end (or the start itself when there are none).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	end := s.EndTime
	if end.IsZero() {
		end = s.StartTime
		for _, c := range s.Children {
			if ce := c.StartTime.Add(c.Duration()); ce.After(end) {
				end = ce
			}
		}
	}
	return end.Sub(s.StartTime)
}

// ctxKey carries the probe scope through a context.
type ctxKey struct{}

// scope is the probe's one context value: the current span (nil while
// only a sink is installed and no span has been opened) and the sink that
// spans opened through the context report to.
type scope struct {
	span *Span
	sink Sink
}

func scopeOf(ctx context.Context) scope {
	sc, _ := ctx.Value(ctxKey{}).(scope)
	return sc
}

// WithTracer installs the tracer's root span as the context's current
// span, keeping any sink already installed. Passing a nil tracer returns
// ctx unchanged.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	sc := scopeOf(ctx)
	sc.span = t.root
	return context.WithValue(ctx, ctxKey{}, sc)
}

// WithSink installs s as the sink of every span opened through the
// returned context, keeping any tracer already installed and replacing
// any earlier sink. Passing a nil sink returns ctx unchanged.
func WithSink(ctx context.Context, s Sink) context.Context {
	if s == nil {
		return ctx
	}
	sc := scopeOf(ctx)
	sc.sink = s
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext returns the current span, or nil when the context carries
// no tracer and no span has been opened through it.
func FromContext(ctx context.Context) *Span {
	return scopeOf(ctx).span
}

// SinkFrom returns the context's sink, or nil when none is installed.
func SinkFrom(ctx context.Context) Sink {
	return scopeOf(ctx).sink
}

// Observed reports whether a tracer or a sink observes ctx. Callers use
// it to skip work whose only purpose is to feed the probe.
func Observed(ctx context.Context) bool {
	sc := scopeOf(ctx)
	return sc.span != nil || sc.sink != nil
}

// StartSpan opens a child of the context's current span and returns it
// with a derived context for the spanned work. When the context carries
// neither a tracer nor a sink it returns (nil, ctx) without allocating.
func StartSpan(ctx context.Context, name string) (*Span, context.Context) {
	sc := scopeOf(ctx)
	if sc.span == nil && sc.sink == nil {
		return nil, ctx
	}
	sp := open(sc.span, name, sc.sink)
	return sp, context.WithValue(ctx, ctxKey{}, scope{span: sp, sink: sc.sink})
}

// Warn reports an anomaly that has no duration of its own: the current
// span records it as the attribute "warning:<code>" and the sink receives
// it as a warning. No-op when nothing observes ctx.
func Warn(ctx context.Context, code, message string) {
	sc := scopeOf(ctx)
	if sc.span != nil {
		sc.span.SetAttr("warning:"+code, message)
	}
	if sc.sink != nil {
		sc.sink.Warning(sc.span, code, message)
	}
}
