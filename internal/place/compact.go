package place

import "sort"

// Compact applies force-directed-style axis compaction to a finished
// placement (after Paetznick & Fowler's compaction-by-pulling, the paper's
// reference [14]): items are pulled toward the origin along x, then y,
// then z, each item stopping against the first item it would overlap —
// and, on the x (time) axis, never sliding past an item it is
// time-ordered after. The pass repeats until a fixpoint, never increases
// the bounding box, and preserves placement legality.
//
// The 2.5-D slab structure is abandoned at this point (items become free
// boxes in 3-D), which is sound: compaction runs after annealing and
// before routing.
func Compact(r *Result) int {
	// after[i] lists the items item i is time-ordered after, over the
	// non-mutual order edges.
	after := make([][]int, len(r.Placed))
	if r.Input != nil {
		for _, e := range r.Input.OrderEdges {
			if !e.Mutual {
				after[e.After] = append(after[e.After], e.Before)
			}
		}
	}
	moved := 0
	for pass := 0; pass < 8; pass++ {
		m := compactAxis(r, axisX, after) + compactAxis(r, axisY, nil) + compactAxis(r, axisZ, nil)
		moved += m
		if m == 0 {
			break
		}
	}
	r.NX, r.NY, r.NZ = bounds(r)
	r.Volume = r.NX * r.NY * r.NZ
	return moved
}

type axis int

const (
	axisX axis = iota
	axisY
	axisZ
)

func get(p *Placed, a axis) (pos, ext int) {
	switch a {
	case axisX:
		return p.X, p.W
	case axisY:
		return p.Y, p.H
	default:
		return p.Z, p.D
	}
}

func set(p *Placed, a axis, v int) {
	switch a {
	case axisX:
		p.X = v
	case axisY:
		p.Y = v
	default:
		p.Z = v
	}
}

// overlapOffAxis reports whether two items overlap on both axes other
// than a.
func overlapOffAxis(p, q *Placed, a axis) bool {
	check := func(b axis) bool {
		pp, pe := get(p, b)
		qp, qe := get(q, b)
		return pp < qp+qe && qp < pp+pe
	}
	switch a {
	case axisX:
		return check(axisY) && check(axisZ)
	case axisY:
		return check(axisX) && check(axisZ)
	default:
		return check(axisX) && check(axisY)
	}
}

// compactAxis pulls every item to the smallest legal coordinate along a,
// processing items in coordinate order so supports settle first. Only the
// items before the current one in that order can support it: the rest
// have not moved yet and sit at or above it. On x, no item starts before
// an item it is ordered after (after is indexed by item).
func compactAxis(r *Result, a axis, after [][]int) int {
	order := make([]int, 0, len(r.Placed))
	for i := range r.Placed {
		if r.Placed[i].Item != nil {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(x, y int) bool {
		px, _ := get(&r.Placed[order[x]], a)
		py, _ := get(&r.Placed[order[y]], a)
		return px < py
	})
	moved := 0
	for k, i := range order {
		p := &r.Placed[i]
		pp, _ := get(p, a)
		floor := 0
		for _, j := range order[:k] {
			q := &r.Placed[j]
			qp, qe := get(q, a)
			if qp >= pp {
				continue // only items below can support
			}
			if overlapOffAxis(p, q, a) && qp+qe > floor {
				floor = qp + qe
			}
		}
		if a == axisX {
			// Time ordering: never slide left past an item this one must
			// follow.
			for _, before := range after[i] {
				b := &r.Placed[before]
				if b.Item != nil && b.X > floor {
					floor = b.X
				}
			}
		}
		if floor < pp {
			set(p, a, floor)
			moved++
		}
	}
	return moved
}

func bounds(r *Result) (nx, ny, nz int) {
	for i := range r.Placed {
		p := &r.Placed[i]
		if p.Item == nil {
			continue
		}
		if v := p.X + p.W; v > nx {
			nx = v
		}
		if v := p.Y + p.H; v > ny {
			ny = v
		}
		if v := p.Z + p.D; v > nz {
			nz = v
		}
	}
	return nx, ny, nz
}
