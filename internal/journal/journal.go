// Package journal is the compression flight recorder: a structured,
// append-only event journal that records what every pipeline stage did
// to the circuit volume and why — stage transitions with a
// volume-waterfall entry, hot-loop progress heartbeats (annealing epochs,
// routing negotiation rounds, dual-bridging passes), and warnings
// (squeezed routes, unresolved audits, failed seeds).
//
// The pipeline never calls the journal. It emits to the obs probe, and a
// Recorder is an obs.Sink that derives its events from that span stream
// (see SpanEnded), so a trace and a journal of the same compile are two
// views of one set of facts. With no recorder and no tracer installed
// the pipeline takes the obs nil fast path and its output is
// bit-identical.
//
// The recorder is also a live feed: subscribers receive a replay of the
// buffered events followed by a tail of new ones, which is what the tqecd
// Server-Sent-Events endpoint streams while a job runs. The buffer is a
// bounded ring — a runaway compile cannot hold the daemon's memory
// hostage — and dropped-event counts are reported rather than hidden.
package journal

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"tqec/internal/obs"
)

// Type classifies a journal event.
type Type string

// Event types.
const (
	// TypeStageStarted marks a pipeline stage beginning.
	TypeStageStarted Type = "stage-started"
	// TypeStageDone carries the stage's volume-waterfall entry.
	TypeStageDone Type = "stage-done"
	// TypeProgress is a hot-loop heartbeat (anneal-epoch, route-round,
	// dual-pass), with numeric detail in Fields.
	TypeProgress Type = "progress"
	// TypeWarning flags a condition worth surfacing (squeezed routes,
	// unresolved audits, failed seeds).
	TypeWarning Type = "warning"
	// TypeJobState is a job-lifecycle marker emitted by the compile
	// service (running, done, failed, canceled).
	TypeJobState Type = "job-state"
)

// Event is one journal record. Exactly one payload group is populated,
// selected by Type; unused fields are omitted from the JSON form.
type Event struct {
	// Seq is the 1-based emission index; it keeps counting even when the
	// ring buffer drops old events, so gaps are detectable.
	Seq int64 `json:"seq"`
	// TMS is milliseconds since the recorder started.
	TMS  float64 `json:"t_ms"`
	Type Type    `json:"type"`
	// Seed tags events from a multi-seed sweep with the restart that
	// emitted them (0 when no enclosing span carries a seed).
	Seed int64 `json:"seed,omitempty"`
	// Stage names the pipeline stage (stage-started/stage-done) or the
	// heartbeat kind (progress: anneal-epoch, route-round, dual-pass).
	Stage string `json:"stage,omitempty"`

	// stage-done payload: the volume-waterfall entry.
	VolumeBefore int            `json:"volume_before,omitempty"`
	VolumeAfter  int            `json:"volume_after,omitempty"`
	Delta        int            `json:"delta,omitempty"`
	Mechanisms   map[string]int `json:"mechanisms,omitempty"`
	DurationMS   float64        `json:"duration_ms,omitempty"`

	// progress payload: numeric detail (temperatures, counts).
	Fields map[string]float64 `json:"fields,omitempty"`

	// warning / job-state payload.
	Code    string `json:"code,omitempty"`
	Message string `json:"message,omitempty"`
}

// DefaultMaxEvents bounds the ring buffer when NewRecorder is given no
// explicit capacity.
const DefaultMaxEvents = 4096

// subBuffer is the per-subscriber channel depth; a subscriber that falls
// further behind than this loses events (counted per subscriber) rather
// than blocking the pipeline.
const subBuffer = 1024

// Recorder is one journal, safe for concurrent use. Install it in a
// context with WithRecorder; every compile under that context feeds it.
type Recorder struct {
	mu      sync.Mutex
	start   time.Time           // immutable after NewRecorder
	max     int                 // immutable after NewRecorder
	seq     int64               // guarded by mu
	head    int                 // guarded by mu; ring start index within events
	events  []Event             // guarded by mu
	dropped int64               // guarded by mu
	nextSub int                 // guarded by mu
	closed  bool                // guarded by mu
	subs    map[int]*subscriber // guarded by mu
	// docs holds, per seed stamp, the document of the latest compile that
	// emitted under that stamp. Every event is folded in, whether or not
	// the ring later drops it, so a document is complete. Guarded by mu.
	docs map[int64]*Journal
}

type subscriber struct {
	ch      chan Event
	dropped int64
}

// NewRecorder starts an empty journal whose ring buffer holds at most
// maxEvents events (<= 0 selects DefaultMaxEvents).
func NewRecorder(maxEvents int) *Recorder {
	if maxEvents <= 0 {
		maxEvents = DefaultMaxEvents
	}
	return &Recorder{
		start: time.Now(),
		max:   maxEvents,
		subs:  map[int]*subscriber{},
		docs:  map[int64]*Journal{},
	}
}

// stageSpans are the pipeline stage spans (DESIGN §9): the start of one
// is a stage-started event and its end the stage-done waterfall row.
var stageSpans = map[string]bool{
	"pdgraph": true, "simplify": true, "primal-bridge": true, "dual-bridge": true,
	"place": true, "route": true, "geometry": true,
}

// progressSpans are the hot-loop spans whose ends are progress
// heartbeats.
var progressSpans = map[string]bool{"anneal-epoch": true, "route-round": true, "dual-pass": true}

// The waterfall attributes of a stage span. Every other integer
// attribute of a stage span is a mechanism count.
const (
	AttrVolumeBefore = "volume_before"
	AttrVolumeAfter  = "volume_after"
	AttrDelta        = "delta"
)

// SpanStarted implements obs.Sink: a stage span's start is stage-started.
func (r *Recorder) SpanStarted(sp *obs.Span) {
	if stageSpans[sp.Name] {
		r.emit(Event{Type: TypeStageStarted, Stage: sp.Name, Seed: stampOf(sp)})
	}
}

// SpanEnded implements obs.Sink. The end of a stage span is its
// stage-done row, built from the span's attributes; the end of a hot-loop
// span is a progress heartbeat carrying its numeric attributes; the end
// of a fleet route-decision that chose a worker is worker-assigned, and
// the end of a retry or failover is dispatch-retried. Other spans are
// not journaled.
func (r *Recorder) SpanEnded(sp *obs.Span) {
	ev := Event{Stage: sp.Name, Seed: stampOf(sp)}
	switch {
	case stageSpans[sp.Name]:
		ev.Type = TypeStageDone
		ev.DurationMS = float64(sp.Duration()) / float64(time.Millisecond)
		for _, a := range sp.Attrs {
			v, ok := a.Value.(int)
			switch {
			case !ok:
			case a.Key == AttrVolumeBefore:
				ev.VolumeBefore = v
			case a.Key == AttrVolumeAfter:
				ev.VolumeAfter = v
			case a.Key == AttrDelta:
				ev.Delta = v
			default:
				if ev.Mechanisms == nil {
					ev.Mechanisms = map[string]int{}
				}
				ev.Mechanisms[a.Key] = v
			}
		}
	case progressSpans[sp.Name]:
		ev.Type = TypeProgress
		ev.Fields = map[string]float64{}
		for _, a := range sp.Attrs {
			switch v := a.Value.(type) {
			case int:
				ev.Fields[a.Key] = float64(v)
			case float64:
				ev.Fields[a.Key] = v
			}
		}
	case sp.Name == "route-decision":
		worker, ok := sp.Lookup("worker")
		if !ok {
			return
		}
		ev = Event{Type: TypeJobState, Code: JobStateWorkerAssigned, Message: fmt.Sprint(worker)}
	case sp.Name == "retry" || sp.Name == "failover":
		reason, _ := sp.Lookup("reason")
		ev = Event{Type: TypeJobState, Code: JobStateDispatchRetried, Message: fmt.Sprint(reason)}
	default:
		return
	}
	r.emit(ev)
}

// Warning implements obs.Sink: an obs.Warn is a warning event.
func (r *Recorder) Warning(sp *obs.Span, code, message string) {
	r.emit(Event{Type: TypeWarning, Code: code, Message: message, Seed: stampOf(sp)})
}

// stampOf is the seed stamp of events emitted under sp: the "seed"
// attribute of sp or of its nearest ancestor that has one (a multi-seed
// sweep's seed-<n> span), or 0.
func stampOf(sp *obs.Span) int64 {
	v, _ := sp.Lookup("seed")
	seed, _ := v.(int64)
	return seed
}

// emit appends one event, folds it into its compile's document and fans
// it out to subscribers. No-op after Close.
func (r *Recorder) emit(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.seq++
	ev.Seq = r.seq
	ev.TMS = float64(time.Since(r.start)) / float64(time.Millisecond)
	r.events = append(r.events, ev)
	if len(r.events)-r.head > r.max {
		r.head++
		r.dropped++
		// Compact occasionally so the backing array cannot grow without
		// bound while the ring stays fixed-size.
		if r.head > r.max {
			r.events = append([]Event(nil), r.events[r.head:]...)
			r.head = 0
		}
	}
	r.fold(ev)
	for _, s := range r.subs {
		select {
		case s.ch <- ev:
		default:
			s.dropped++
		}
	}
}

// fold adds a pipeline event to the document of its seed stamp. A stage
// starting under a stamp whose document already has that stage's row
// begins the next compile's document.
func (r *Recorder) fold(ev Event) {
	if ev.Type == TypeJobState {
		return
	}
	d := r.docs[ev.Seed]
	if d == nil || ev.Type == TypeStageStarted && slices.ContainsFunc(d.Stages, func(e StageEntry) bool { return e.Stage == ev.Stage }) {
		d = &Journal{}
		r.docs[ev.Seed] = d
	}
	switch ev.Type {
	case TypeStageDone:
		if len(d.Stages) == 0 {
			d.CanonicalVolume = ev.VolumeBefore
		}
		d.FinalVolume = ev.VolumeAfter
		d.Stages = append(d.Stages, StageEntry{
			Stage:        ev.Stage,
			VolumeBefore: ev.VolumeBefore,
			VolumeAfter:  ev.VolumeAfter,
			Delta:        ev.Delta,
			Mechanisms:   ev.Mechanisms,
			DurationMS:   ev.DurationMS,
		})
	case TypeProgress:
		f := ev.Fields
		switch ev.Stage {
		case "anneal-epoch":
			d.Anneal = append(d.Anneal, AnnealEpoch{
				Epoch:    int(f["epoch"]),
				Temp:     f["temp"],
				Moves:    int(f["moves"]),
				Accepted: int(f["accepted"]),
			})
		case "route-round":
			d.RouteRounds = append(d.RouteRounds, RouteRound{
				Round:      int(f["round"]),
				Ripped:     int(f["ripped"]),
				Searches:   int(f["searches"]),
				Expansions: int(f["expansions"]),
				Overflow:   int(f["overflow"]),
			})
		case "dual-pass":
			d.DualPasses = append(d.DualPasses, DualPass{
				Pass:   int(f["pass"]),
				Merges: int(f["merges"]),
			})
		}
	case TypeWarning:
		d.Warnings = append(d.Warnings, Warning{Code: ev.Code, Message: ev.Message, Seed: ev.Seed})
	}
}

// JobState records a job-lifecycle transition (used by the compile
// service; the pipeline itself never emits these).
func (r *Recorder) JobState(state, message string) {
	r.emit(Event{Type: TypeJobState, Code: state, Message: message})
}

// Fleet-dispatch job-state codes, derived from the fleet coordinator's
// dispatch spans: a job's journal then shows which worker ran it and
// every time dispatch had to be retried or failed over.
const (
	// JobStateWorkerAssigned marks a job routed to a worker; the message
	// carries the worker ID.
	JobStateWorkerAssigned = "worker-assigned"
	// JobStateDispatchRetried marks a dispatch attempt or a running job
	// abandoned because its worker was unreachable or dead; the message
	// carries the worker ID (when one was involved) and the reason.
	JobStateDispatchRetried = "dispatch-retried"
)

// Close seals the journal: no further events are accepted and every
// subscriber's channel is closed once its queued events drain.
// Idempotent. Subscribers that arrive after Close still receive the full
// buffered replay followed by an immediately-closed channel, which is
// what gives late SSE clients replay-then-EOF semantics.
func (r *Recorder) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	for id, s := range r.subs {
		close(s.ch)
		delete(r.subs, id)
	}
}

// Events returns a snapshot copy of the buffered events (oldest first;
// earlier events may have been dropped by the ring — see Dropped).
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events[r.head:]...)
}

// Dropped reports how many events the ring buffer has discarded.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Subscribe returns a replay of the buffered events plus a channel that
// tails new ones. The channel closes when the journal is closed (or
// immediately, if it already was). cancel detaches the subscriber; it is
// safe to call after the channel closed. A subscriber that cannot keep
// up loses events rather than blocking the pipeline.
func (r *Recorder) Subscribe() (replay []Event, ch <-chan Event, cancel func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	replay = append([]Event(nil), r.events[r.head:]...)
	if r.closed {
		done := make(chan Event)
		close(done)
		return replay, done, func() {}
	}
	s := &subscriber{ch: make(chan Event, subBuffer)}
	id := r.nextSub
	r.nextSub++
	r.subs[id] = s
	return replay, s.ch, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if sub, ok := r.subs[id]; ok {
			delete(r.subs, id)
			close(sub.ch)
		}
	}
}

// WithRecorder installs the recorder as the sink of ctx's obs probe; it
// composes with obs.WithTracer in either order. A nil recorder returns
// ctx unchanged.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return obs.WithSink(ctx, r)
}

// Document returns the journal document of the latest compile that ran
// under ctx's seed stamp (see Event.Seed), named and seeded by the
// caller, or nil when ctx carries no recorder.
func Document(ctx context.Context, name string, seed int64) *Journal {
	r, ok := obs.SinkFrom(ctx).(*Recorder)
	if !ok {
		return nil
	}
	stamp := stampOf(obs.FromContext(ctx))
	r.mu.Lock()
	defer r.mu.Unlock()
	var j Journal
	if d := r.docs[stamp]; d != nil {
		j = *d
	}
	j.Name, j.Seed, j.EventsDropped = name, seed, r.dropped
	// The copy shares the recorder's backing arrays; clip the one slice
	// callers extend (a sweep adds its failed seeds' warnings) so an append
	// never writes into them.
	j.Warnings = slices.Clip(j.Warnings)
	return &j
}
