package place

import (
	"fmt"

	"tqec/internal/icm"
)

// OrderViolations returns the non-mutual order edges the placement
// violates: the After item starts or finishes strictly before the Before
// item on the time (x) axis. These are the edges the annealer penalises.
func (r *Result) OrderViolations() []OrderEdge {
	var out []OrderEdge
	for _, e := range r.Input.OrderEdges {
		b, a := &r.Placed[e.Before], &r.Placed[e.After]
		if !e.Mutual && (b.X > a.X || b.X+b.W > a.X+a.W) {
			out = append(out, e)
		}
	}
	return out
}

// ScheduleAudit reports how well a placement realizes the ICM
// measurement-ordering constraints when each rail's measurement time is
// read off as the x position of the item holding the rail's measurement
// module (Input.RailItem).
type ScheduleAudit struct {
	Constraints int // ordering constraints checked
	SameItem    int // constraint pairs co-located in one super-module
	// Inverted lists the violated constraints, in constraint order.
	Inverted []Inversion
}

// Inversion is one measurement-ordering constraint the placement
// inverts: the item measuring the Before rail starts strictly right of
// the item measuring the After rail.
type Inversion struct {
	icm.Constraint
	BeforeItem, AfterItem int
	BeforeX, AfterX       int
}

// Satisfied reports whether every cross-item constraint holds.
func (a ScheduleAudit) Satisfied() bool { return len(a.Inverted) == 0 }

// String renders the audit line.
func (a ScheduleAudit) String() string {
	return fmt.Sprintf("schedule: %d constraints, %d co-located, %d violated",
		a.Constraints, a.SameItem, len(a.Inverted))
}

// AuditSchedule checks the placement against the measurement-ordering
// constraints of the ICM its items were built from. Pairs whose
// measurements land inside the same super-module are counted as
// co-located (their relative order is fixed by the intra-module x offsets
// of the I-shaped structure, not by placement), and cross-item pairs are
// compared by item x position. A nil result, or one without its input's
// PD graph, audits to zero.
func (r *Result) AuditSchedule() ScheduleAudit {
	var audit ScheduleAudit
	if r == nil || r.Input == nil || r.Input.Graph == nil {
		return audit
	}
	for _, c := range r.Input.Graph.Source.Constraints {
		audit.Constraints++
		bi, ai := r.Input.RailItem[c.Before], r.Input.RailItem[c.After]
		if bi == ai {
			audit.SameItem++
			continue
		}
		if bx, ax := r.Placed[bi].X, r.Placed[ai].X; bx > ax {
			audit.Inverted = append(audit.Inverted, Inversion{Constraint: c, BeforeItem: bi, AfterItem: ai, BeforeX: bx, AfterX: ax})
		}
	}
	return audit
}
