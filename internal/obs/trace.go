// Package obs is the observability layer of the compiler and the tqecd
// service: a lightweight span-tree tracer carried through context.Context,
// a metrics registry with Prometheus text exposition, a shared log/slog
// handler configuration, and a pprof debug mux.
//
// The package is zero-dependency (stdlib only) and designed around a nil
// fast path: when no tracer has been installed in the context, every
// tracing call site reduces to a nil check, so the instrumented pipeline
// is bit-identical in output and free of measurable overhead for
// untraced compiles. Instrumentation must never consume randomness or
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

// Span is one timed node of a trace tree. Fields are written under the
// owning tracer's lock while the traced work runs; read them only after
// the work completes (or via Tracer export methods, which lock).
//
// All methods are safe on a nil receiver and do nothing, which is what
// makes call sites cheap when tracing is off.
type Span struct {
	Name      string
	StartTime time.Time
	EndTime   time.Time // zero until End is called
	Attrs     []Attr
	Children  []*Span

	tracer *Tracer
}

// Tracer owns one trace tree. Create one per traced unit of work (a
// compile, a job) with NewTracer; concurrent spans of the same tracer
// are synchronized internally, and distinct tracers share no state, so
// concurrent compiles with separate tracers can never interleave spans.
type Tracer struct {
	mu   sync.Mutex
	root *Span

	// Distributed-trace identity, set via Link for traces that cross a
	// process boundary. Zero for purely local traces.
	traceID      string
	parentSpanID string
	process      string
}

// NewTracer starts a trace whose root span has the given name.
func NewTracer(name string) *Tracer {
	t := &Tracer{}
	t.root = &Span{Name: name, StartTime: time.Now(), tracer: t}
	return t
}

// Link ties this tracer into the distributed trace identified by tc:
// the tracer adopts tc.TraceID and records tc.SpanID as its remote
// parent span. Invalid contexts are ignored (the trace stays a fresh
// local root). No-op on nil.
func (t *Tracer) Link(tc TraceContext) {
	if t == nil {
		return
	}
	if !tc.Valid() {
		return
	}
	t.mu.Lock()
	t.traceID = tc.TraceID
	t.parentSpanID = tc.SpanID
	t.mu.Unlock()
}

// SetTraceID stamps a trace ID without a remote parent — the tracer IS
// the distributed root. Invalid IDs are ignored. No-op on nil.
func (t *Tracer) SetTraceID(id string) {
	if t == nil {
		return
	}
	if !validHexID(id, 32) {
		return
	}
	t.mu.Lock()
	t.traceID = id
	t.mu.Unlock()
}

// SetProcess names the process lane this tracer's spans belong to in
// cross-process exports ("coordinator", a worker ID). No-op on nil.
func (t *Tracer) SetProcess(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.process = name
	t.mu.Unlock()
}

// TraceID returns the distributed trace ID, or "" for local traces.
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.traceID
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

// Tracer returns the tracer that owns s, or nil when s is nil.
func (s *Span) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tracer
}

// StartChild opens a child span under s. Returns nil when s is nil.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name, StartTime: time.Now(), tracer: s.tracer}
	s.tracer.mu.Lock()
	s.Children = append(s.Children, c)
	s.tracer.mu.Unlock()
	return c
}

// End closes the span. Idempotent; no-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	if s.EndTime.IsZero() {
		s.EndTime = time.Now()
	}
	s.tracer.mu.Unlock()
}

// SetAttr attaches a key/value attribute. No-op on nil.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
	s.tracer.mu.Unlock()
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

// ctxKey carries the current span through a context.
type ctxKey struct{}

// WithTracer installs the tracer's root span as the context's current
// span. Passing a nil tracer returns ctx unchanged.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t.root)
}

// ContextWithSpan returns ctx with sp as the current span. A nil span
// returns ctx unchanged.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the current span, or nil when the context carries
// no tracer — the nil fast path every instrumentation site relies on.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// StartSpan opens a child of the context's current span and returns it
// with a derived context for the spanned work. When the context carries
// no tracer it returns (nil, ctx) without allocating.
func StartSpan(ctx context.Context, name string) (*Span, context.Context) {
	parent := FromContext(ctx)
	if parent == nil {
		return nil, ctx
	}
	sp := parent.StartChild(name)
	return sp, ContextWithSpan(ctx, sp)
}
