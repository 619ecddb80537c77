package place

import (
	"cmp"
	"slices"
)

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
	m := newHeightMap(r)
	moved := 0
	for pass := 0; pass < 8; pass++ {
		n := m.compactAxis(r, axisX, after) + m.compactAxis(r, axisY, nil) + m.compactAxis(r, axisZ, nil)
		moved += n
		if n == 0 {
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

// crossAxes returns the two axes other than a.
func crossAxes(a axis) (u, v axis) {
	switch a {
	case axisX:
		return axisY, axisZ
	case axisY:
		return axisX, axisZ
	default:
		return axisX, axisY
	}
}

// heightMap is compactAxis's scratch, allocated once per Compact: the
// placed items in index order, and for each unit cell of the plane across
// the compacted axis, the highest top among the items settled on it so
// far. Items have positive extents (Input.Validate), so two items share a
// cell exactly when their intervals overlap on both cross axes.
type heightMap struct {
	order []int
	top   []int
	// lo is each axis's lowest coordinate, at most 0, and span the cells
	// from there to the highest item end. Compaction moves items only
	// down and never below 0, so both bound the items throughout.
	lo, span [3]int
}

func newHeightMap(r *Result) *heightMap {
	m := &heightMap{}
	var hi [3]int
	for i := range r.Placed {
		p := &r.Placed[i]
		if p.Item == nil {
			continue
		}
		m.order = append(m.order, i)
		for a := axisX; a <= axisZ; a++ {
			pos, ext := get(p, a)
			m.lo[a] = min(m.lo[a], pos)
			hi[a] = max(hi[a], pos+ext)
		}
	}
	cells := 0
	for a := axisX; a <= axisZ; a++ {
		m.span[a] = hi[a] - m.lo[a]
	}
	for a := axisX; a <= axisZ; a++ {
		u, v := crossAxes(a)
		cells = max(cells, m.span[u]*m.span[v])
	}
	m.top = make([]int, cells)
	return m
}

// floor returns the highest top under p's footprint across axis a.
func (m *heightMap) floor(p *Placed, a axis) int {
	u, v := crossAxes(a)
	up, ue := get(p, u)
	vp, ve := get(p, v)
	up, vp = up-m.lo[u], vp-m.lo[v]
	f := 0
	for cu := up; cu < up+ue; cu++ {
		row := m.top[cu*m.span[v]:]
		for _, t := range row[vp : vp+ve] {
			f = max(f, t)
		}
	}
	return f
}

// settle raises the cells under p's footprint across axis a to p's top.
func (m *heightMap) settle(p *Placed, a axis) {
	u, v := crossAxes(a)
	up, ue := get(p, u)
	vp, ve := get(p, v)
	up, vp = up-m.lo[u], vp-m.lo[v]
	pos, ext := get(p, a)
	for cu := up; cu < up+ue; cu++ {
		row := m.top[cu*m.span[v]:]
		for cv := vp; cv < vp+ve; cv++ {
			row[cv] = max(row[cv], pos+ext)
		}
	}
}

// compactAxis pulls every item to the smallest legal coordinate along a,
// processing items in coordinate order so supports settle first. An item
// rests on the highest top among the items processed before it that sit
// strictly below it and overlap it across a. That excludes the unmoved
// members of its own tie group, which still sit at the group's
// coordinate: they settle into the height map when the group ends, and an
// item that moved settles at once. On x, no item starts before an item it
// is ordered after (after is indexed by item).
func (m *heightMap) compactAxis(r *Result, a axis, after [][]int) int {
	// Refill index order: the stable sort keeps it among ties.
	order := m.order[:0]
	for i := range r.Placed {
		if r.Placed[i].Item != nil {
			order = append(order, i)
		}
	}
	slices.SortStableFunc(order, func(i, j int) int {
		pi, _ := get(&r.Placed[i], a)
		pj, _ := get(&r.Placed[j], a)
		return cmp.Compare(pi, pj)
	})
	u, v := crossAxes(a)
	clear(m.top[:m.span[u]*m.span[v]])
	moved := 0
	group, groupAt := 0, 0 // the tie group's first index in order, and its coordinate
	for k, i := range order {
		p := &r.Placed[i]
		pp, _ := get(p, a)
		if k == 0 || pp != groupAt {
			for _, j := range order[group:k] {
				q := &r.Placed[j]
				if qp, _ := get(q, a); qp == groupAt {
					m.settle(q, a)
				}
			}
			group, groupAt = k, pp
		}
		floor := m.floor(p, a)
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
			m.settle(p, a)
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
