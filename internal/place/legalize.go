package place

import "sort"

// LegalizeOrder repairs residual measurement-ordering violations left by
// the stochastic placement: the annealer treats the time ordering as a
// soft penalty and compaction never moves items right, so a finished
// placement can still schedule a measurement before one it depends on.
//
// The pass condenses the complete lifted ordering relation
// (Input.OrderEdges, Mutual edges included) into its strongly-connected
// components and walks the condensation in topological order. A
// singleton component is pushed right along x until it starts no earlier
// than everything it must follow. A larger component is a set of
// mutually ordered items: the schedule relation is violated only by a
// *strictly* earlier start, so the component is satisfiable exactly when
// all members share one x — the pass moves the whole component to the
// smallest common x at or above its predecessors' floor where no member
// collides with an outside item. When members of a cycle overlap off the
// time axis no common x exists; they are left at their floors and the
// residual violations surface in the schedule audit and DRC report.
//
// Returns the number of items moved.
func LegalizeOrder(r *Result) int {
	if r == nil || r.Input == nil || len(r.Input.OrderEdges) == 0 {
		return 0
	}
	n := len(r.Placed)
	succ := make([][]int, n) // edge before -> after
	pred := make([][]int, n) // reversed
	for _, e := range r.Input.OrderEdges {
		b, a := e.Before, e.After
		if b < 0 || a < 0 || b >= n || a >= n || b == a {
			continue
		}
		if r.Placed[b].Item == nil || r.Placed[a].Item == nil {
			continue
		}
		succ[b] = append(succ[b], a)
		pred[a] = append(pred[a], b)
	}

	comp, order := sccCondense(succ)

	moved := 0
	for _, members := range order {
		ms := append([]int(nil), members...)
		sort.Ints(ms)
		inComp := map[int]bool{}
		for _, v := range ms {
			inComp[v] = true
		}
		// Floor from predecessors in earlier components (all settled by
		// topological order): a member must start no earlier than each,
		// and — the edges being acyclic — must not finish earlier either.
		floor := 0
		for _, v := range ms {
			pv := &r.Placed[v]
			for _, u := range pred[v] {
				if comp[u] == comp[v] {
					continue
				}
				pu := &r.Placed[u]
				if pu.X > floor {
					floor = pu.X
				}
				if f := pu.X + pu.W - pv.W; f > floor {
					floor = f
				}
			}
		}
		if len(ms) == 1 {
			v := ms[0]
			if floor > r.Placed[v].X {
				r.Placed[v].X = slideRight(r, v, floor)
				moved++
			}
		} else if disjointOffAxis(r, ms) {
			// Find the smallest common x >= floor where every member fits
			// against the items outside the component; x only grows, so
			// the scan terminates.
			x := floor
			for {
				bumped := false
				for _, v := range ms {
					at := r.Placed[v]
					for j := range r.Placed {
						q := &r.Placed[j]
						if q.Item == nil || inComp[j] {
							continue
						}
						at.X = x
						if overlaps(&at, q) {
							x = q.X + q.W
							bumped = true
						}
					}
				}
				if !bumped {
					break
				}
			}
			for _, v := range ms {
				if r.Placed[v].X != x {
					r.Placed[v].X = x
					moved++
				}
			}
		} else if assign, ok := packMembers(r, ms, floor); ok {
			// Members collide off the time axis at their current y/z, so
			// no common x exists there — re-pack the cycle: move members
			// sideways to positions where they can all share x = floor.
			for _, v := range ms {
				pv := &r.Placed[v]
				yz := assign[v]
				if pv.X != floor || pv.Y != yz[0] || pv.Z != yz[1] {
					pv.X, pv.Y, pv.Z = floor, yz[0], yz[1]
					moved++
				}
			}
		} else {
			// No re-packing found: the cycle stays unsatisfiable under
			// this placement. Apply the predecessor floor only, leaving
			// the intra-cycle violations for the audit to report.
			for _, v := range ms {
				if floor > r.Placed[v].X {
					r.Placed[v].X = slideRight(r, v, floor)
					moved++
				}
			}
		}
	}
	if moved > 0 {
		r.NX, r.NY, r.NZ = bounds(r)
		r.Volume = r.NX * r.NY * r.NZ
	}
	return moved
}

// packMembers searches for y/z positions letting every member of a
// mutually ordered cycle sit at the common time coordinate x: members are
// placed largest-first, each at the in-bounds position nearest its
// current one that collides with neither an outside item nor an
// already-packed member. Returns the member → {y, z} assignment, or
// ok=false when some member fits nowhere.
func packMembers(r *Result, ms []int, x int) (map[int][2]int, bool) {
	member := map[int]bool{}
	for _, v := range ms {
		member[v] = true
	}
	order := append([]int(nil), ms...)
	sort.Slice(order, func(i, j int) bool {
		a, b := &r.Placed[order[i]], &r.Placed[order[j]]
		if a.H*a.D != b.H*b.D {
			return a.H*a.D > b.H*b.D
		}
		return order[i] < order[j]
	})
	assign := map[int][2]int{}
	for _, v := range order {
		pv := &r.Placed[v]
		bestY, bestZ, bestCost := -1, -1, 1<<30
		for z := 0; z <= r.NZ; z++ {
			for y := 0; y <= r.NY; y++ {
				cost := abs(y-pv.Y) + abs(z-pv.Z)
				if cost >= bestCost {
					continue
				}
				if packFits(r, v, x, y, z, member, assign) {
					bestY, bestZ, bestCost = y, z, cost
				}
			}
		}
		if bestY < 0 {
			return nil, false
		}
		assign[v] = [2]int{bestY, bestZ}
	}
	return assign, true
}

// packFits reports whether member v, moved to (x, y, z), collides with no
// outside item and no already-packed member.
func packFits(r *Result, v, x, y, z int, member map[int]bool, assign map[int][2]int) bool {
	pv := &r.Placed[v]
	at := *pv
	at.X, at.Y, at.Z = x, y, z
	for j := range r.Placed {
		if j == v {
			continue
		}
		q := &r.Placed[j]
		if q.Item == nil {
			continue
		}
		if member[j] {
			yz, ok := assign[j]
			if !ok {
				continue // not packed yet; it will avoid v in its own turn
			}
			// Same x by construction: collision is y/z overlap.
			if y < yz[0]+q.H && yz[0] < y+pv.H &&
				z < yz[1]+q.D && yz[1] < z+pv.D {
				return false
			}
			continue
		}
		if overlaps(&at, q) {
			return false
		}
	}
	return true
}

// disjointOffAxis reports whether the members are pairwise disjoint in
// the y/z projection, i.e. whether they can share an x interval.
func disjointOffAxis(r *Result, ms []int) bool {
	for i := 0; i < len(ms); i++ {
		for j := i + 1; j < len(ms); j++ {
			p, q := &r.Placed[ms[i]], &r.Placed[ms[j]]
			if p.Y < q.Y+q.H && q.Y < p.Y+p.H &&
				p.Z < q.Z+q.D && q.Z < p.Z+p.D {
				return false
			}
		}
	}
	return true
}

// slideRight returns the smallest x >= floor where item v overlaps no
// other item. Pushing only ever moves right past blockers, so the scan
// terminates.
func slideRight(r *Result, v, floor int) int {
	at := r.Placed[v]
	at.X = floor
	for {
		bumped := false
		for j := range r.Placed {
			if j == v {
				continue
			}
			q := &r.Placed[j]
			if q.Item != nil && overlaps(&at, q) {
				at.X = q.X + q.W
				bumped = true
			}
		}
		if !bumped {
			return at.X
		}
	}
}

// sccCondense runs Tarjan's algorithm over the item ordering graph and
// returns the component ID of each node plus the components' member
// lists in topological order (every edge goes from an earlier component
// to a later one).
func sccCondense(succ [][]int) (comp []int, order [][]int) {
	n := len(succ)
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0

	var strong func(v int)
	strong = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ[v] {
			if index[w] < 0 {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var members []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = len(order)
				members = append(members, w)
				if w == v {
					break
				}
			}
			order = append(order, members)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] < 0 {
			strong(v)
		}
	}
	// Tarjan emits components in reverse topological order.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	for v := range comp {
		comp[v] = len(order) - 1 - comp[v]
	}
	return comp, order
}
