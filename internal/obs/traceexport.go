package obs

import (
	"encoding/json"
	"io"
	"time"
)

// SpanJSON is the serialized form of a span subtree: times are relative
// to the trace root in microseconds, so the document is stable across
// machines and trivially diffable.
type SpanJSON struct {
	Name     string         `json:"name"`
	StartUS  int64          `json:"start_us"`
	DurUS    int64          `json:"dur_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*SpanJSON    `json:"children,omitempty"`
	// Process names the process lane of a subtree in a stitched
	// multi-process trace; only the stitcher sets it.
	Process string `json:"process,omitempty"`
}

// Tree renders the trace as a nested SpanJSON document.
func (t *Tracer) Tree() *SpanJSON {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return spanJSON(t.root, t.root.StartTime)
}

func spanJSON(s *Span, epoch time.Time) *SpanJSON {
	out := &SpanJSON{
		Name:    s.Name,
		StartUS: s.StartTime.Sub(epoch).Microseconds(),
		DurUS:   s.Duration().Microseconds(),
	}
	if len(s.Attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.Attrs))
		for _, a := range s.Attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.Children {
		out.Children = append(out.Children, spanJSON(c, epoch))
	}
	return out
}

// WriteJSON writes the nested span-tree JSON form.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Tree())
}

// ChromeEvent is one Chrome trace_event ("X" complete event). A file of
// these loads directly into chrome://tracing and Perfetto.
type ChromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`  // microseconds since trace start
	Dur  int64          `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace flattens the span tree into Chrome trace events. Spans are
// assigned to lanes (tids): a child inherits its parent's lane unless it
// overlaps an earlier sibling in time (parallel seed sweeps), in which
// case it opens a fresh lane — nesting inside a lane then reflects the
// real call structure.
func (t *Tracer) ChromeTrace() []ChromeEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	epoch := t.root.StartTime
	nextTID := 1
	var events []ChromeEvent
	var walk func(s *Span, tid int)
	walk = func(s *Span, tid int) {
		ev := ChromeEvent{
			Name: s.Name,
			Ph:   "X",
			TS:   s.StartTime.Sub(epoch).Microseconds(),
			Dur:  s.Duration().Microseconds(),
			TID:  tid,
		}
		if len(s.Attrs) > 0 {
			ev.Args = make(map[string]any, len(s.Attrs))
			for _, a := range s.Attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		events = append(events, ev)
		// Lane assignment among the children: keep the parent's lane while
		// the children are sequential; overlapping children (concurrent
		// work) each get their own lane.
		laneEnd := map[int]time.Time{} // lane -> latest end among placed children
		for _, c := range s.Children {
			lane := tid
			if end, busy := laneEnd[lane]; busy && c.StartTime.Before(end) {
				lane = nextTID
				nextTID++
			}
			cEnd := c.StartTime.Add(c.Duration())
			if cur, ok := laneEnd[lane]; !ok || cEnd.After(cur) {
				laneEnd[lane] = cEnd
			}
			walk(c, lane)
		}
	}
	walk(t.root, 0)
	return events
}

// WriteChromeTrace writes the trace in Chrome trace_event JSON-array
// format, loadable in chrome://tracing and https://ui.perfetto.dev.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	return enc.Encode(t.ChromeTrace())
}
