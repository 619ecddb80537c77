package obs

import (
	"encoding/json"
	"io"
	"time"
)

// Graft stitches guest — a trace document produced by another process,
// start_us relative to its own root — into host's tree as a child of
// the last span named underName (depth-first order; "last" because
// retried hops append attempts sequentially and the final attempt is
// the one the guest answered). The guest root is placed offset after
// that span's start: for a fleet job, the worker's measured queue wait
// (its root's queued_us), so no two clocks are ever compared. A
// negative offset clamps to the span's start — the hop that created
// the guest tree happened inside underName. The applied base is
// recorded on the grafted root as the stitch_base_us attribute.
//
// Returns false (host unchanged) when either tree is nil or no span
// named underName exists.
func Graft(host *SpanJSON, underName string, guest *SpanJSON, offset time.Duration) bool {
	if host == nil || guest == nil {
		return false
	}
	under := findLast(host, underName)
	if under == nil {
		return false
	}
	base := under.StartUS + max(offset.Microseconds(), 0)
	rebase(guest, base)
	if guest.Attrs == nil {
		guest.Attrs = map[string]any{}
	}
	guest.Attrs["stitch_base_us"] = base
	under.Children = append(under.Children, guest)
	return true
}

// findLast returns the last span named name in DFS order, or nil.
func findLast(s *SpanJSON, name string) *SpanJSON {
	var found *SpanJSON
	var walk func(*SpanJSON)
	walk = func(sp *SpanJSON) {
		if sp.Name == name {
			found = sp
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(s)
	return found
}

// rebase shifts every start_us in the subtree by base microseconds.
func rebase(s *SpanJSON, base int64) {
	s.StartUS += base
	for _, c := range s.Children {
		rebase(c, base)
	}
}

// ChromeTraceFromTree flattens a (possibly stitched, multi-process)
// SpanJSON tree into Chrome trace events. Every subtree root carrying a
// Process name opens a fresh pid lane — so a stitched trace renders the
// coordinator and each worker as separate processes — announced by a
// "process_name" metadata event. Within a pid, lane (tid) assignment
// follows the same rule as Tracer.ChromeTrace: a child inherits its
// parent's lane unless it overlaps an earlier sibling, in which case it
// opens a fresh lane.
func ChromeTraceFromTree(root *SpanJSON) []ChromeEvent {
	if root == nil {
		return nil
	}
	var events []ChromeEvent
	nextPID := 0
	newProcess := func(name string) int {
		pid := nextPID
		nextPID++
		events = append(events, ChromeEvent{
			Name: "process_name",
			Ph:   "M",
			PID:  pid,
			Args: map[string]any{"name": name},
		})
		return pid
	}
	// nextTID is per-pid so each process's lanes start at its root.
	nextTID := map[int]int{}
	var walk func(s *SpanJSON, pid, tid int, isRoot bool)
	walk = func(s *SpanJSON, pid, tid int, isRoot bool) {
		if s.Process != "" || isRoot {
			name := s.Process
			if name == "" {
				name = s.Name
			}
			pid = newProcess(name)
			tid = 0
			nextTID[pid] = 1
		}
		ev := ChromeEvent{
			Name: s.Name,
			Ph:   "X",
			TS:   s.StartUS,
			Dur:  s.DurUS,
			PID:  pid,
			TID:  tid,
		}
		if len(s.Attrs) > 0 {
			ev.Args = make(map[string]any, len(s.Attrs))
			for k, v := range s.Attrs {
				ev.Args[k] = v
			}
		}
		events = append(events, ev)
		laneEnd := map[int]int64{} // lane -> latest end among placed children
		for _, c := range s.Children {
			if c.Process != "" {
				// A new process lane never contends for the parent's lanes.
				walk(c, pid, tid, false)
				continue
			}
			lane := tid
			if end, busy := laneEnd[lane]; busy && c.StartUS < end {
				lane = nextTID[pid]
				nextTID[pid]++
			}
			if cEnd := c.StartUS + c.DurUS; cEnd > laneEnd[lane] {
				laneEnd[lane] = cEnd
			}
			walk(c, pid, lane, false)
		}
	}
	walk(root, 0, 0, true)
	return events
}

// WriteChromeTraceTree writes the tree in Chrome trace_event JSON-array
// format, loadable in chrome://tracing and https://ui.perfetto.dev.
func WriteChromeTraceTree(w io.Writer, root *SpanJSON) error {
	enc := json.NewEncoder(w)
	return enc.Encode(ChromeTraceFromTree(root))
}
