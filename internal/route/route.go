// Package route implements the dual-defect net routing stage (paper §3.6):
// each dual net is routed on a three-dimensional unit grid with A* search
// inside a restricted region, and congestion is resolved with the
// negotiation-based rip-up-and-reroute scheme of PathFinder (McMurchie &
// Ebeling): cell costs grow with present sharing and accumulated history
// until every cell is used by at most one net.
package route

import (
	"container/heap"
	"context"
	"fmt"
	"sort"

	"tqec/internal/obs"
)

// Cell is a grid coordinate in paper units.
type Cell struct {
	X, Y, Z int
}

// Add returns the component-wise sum.
func (c Cell) Add(d Cell) Cell { return Cell{c.X + d.X, c.Y + d.Y, c.Z + d.Z} }

// Manhattan returns the L1 distance between cells.
func (c Cell) Manhattan(o Cell) int {
	return abs(c.X-o.X) + abs(c.Y-o.Y) + abs(c.Z-o.Z)
}

var neighbors6 = []Cell{
	{1, 0, 0}, {-1, 0, 0},
	{0, 1, 0}, {0, -1, 0},
	{0, 0, 1}, {0, 0, -1},
}

// Grid is the routing fabric: a box of unit cells with static obstacles.
type Grid struct {
	NX, NY, NZ int
	blocked    []bool
	history    []float64
	usage      []int16
}

// NewGrid allocates an empty grid.
func NewGrid(nx, ny, nz int) (*Grid, error) {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("route: empty grid %d×%d×%d", nx, ny, nz)
	}
	n := nx * ny * nz
	return &Grid{
		NX: nx, NY: ny, NZ: nz,
		blocked: make([]bool, n),
		history: make([]float64, n),
		usage:   make([]int16, n),
	}, nil
}

// In reports whether the cell lies inside the grid.
func (g *Grid) In(c Cell) bool {
	return c.X >= 0 && c.X < g.NX && c.Y >= 0 && c.Y < g.NY && c.Z >= 0 && c.Z < g.NZ
}

func (g *Grid) idx(c Cell) int { return (c.Z*g.NY+c.Y)*g.NX + c.X }

// Block marks a cell as a static obstacle.
func (g *Grid) Block(c Cell) {
	if g.In(c) {
		g.blocked[g.idx(c)] = true
	}
}

// BlockBox blocks every cell of the closed box [min, max].
func (g *Grid) BlockBox(min, max Cell) {
	for z := min.Z; z <= max.Z; z++ {
		for y := min.Y; y <= max.Y; y++ {
			for x := min.X; x <= max.X; x++ {
				g.Block(Cell{x, y, z})
			}
		}
	}
}

// Unblock frees a cell (used for pins inside module footprints).
func (g *Grid) Unblock(c Cell) {
	if g.In(c) {
		g.blocked[g.idx(c)] = false
	}
}

// Blocked reports whether a cell is a static obstacle.
func (g *Grid) Blocked(c Cell) bool { return !g.In(c) || g.blocked[g.idx(c)] }

// Net is one multi-pin net to route.
type Net struct {
	ID   int
	Pins []Cell
}

// Options tunes the router.
type Options struct {
	// MaxIters bounds the PathFinder negotiation rounds (default 8).
	MaxIters int
	// RegionInflate is the initial restricted-region margin around the
	// pin bounding box, in cells (default 4); it grows on retry.
	RegionInflate int
	// PresentFactor scales the present-sharing penalty per extra user
	// (default 4); HistoryFactor scales accumulated history (default 1).
	PresentFactor float64
	HistoryFactor float64
	// CellCapacity is the number of distinct nets a cell may carry
	// without overflowing (default 1). The doubled lattice admits two
	// dual strands per paper-unit cell at half-unit offsets while keeping
	// the one-unit dual–dual separation, so callers modeling that
	// geometry pass 2.
	CellCapacity int
	// BlockPenalty is the cost of entering a blocked cell (default 500):
	// obstacles are soft walls so a pin walled in by tightly packed
	// distillation boxes can still be reached; such squeezes are counted
	// in Result.Squeezed and should stay near zero.
	BlockPenalty float64
}

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 8
	}
	if o.RegionInflate <= 0 {
		o.RegionInflate = 4
	}
	if o.PresentFactor <= 0 {
		o.PresentFactor = 4
	}
	if o.HistoryFactor <= 0 {
		o.HistoryFactor = 1
	}
	if o.CellCapacity <= 0 {
		o.CellCapacity = 1
	}
	if o.BlockPenalty <= 0 {
		o.BlockPenalty = 500
	}
	return o
}

// Result is the routing outcome.
type Result struct {
	// Routes maps net ID to the set of cells its routed tree occupies.
	Routes map[int][]Cell
	// Failed lists nets that could not be routed at all.
	Failed []int
	// Wirelength is the total number of occupied cells beyond the pins.
	Wirelength int
	// Overflow is the number of cells still shared after the last round.
	Overflow int
	// Squeezed is the number of route cells lying on blocked cells (soft
	// obstacle passes); near zero in healthy routings.
	Squeezed int
	// Iters is the number of negotiation rounds performed.
	Iters int
}

// RouteContext runs the negotiated router under a context. Cancellation
// is polled at every negotiation round and before each net's rip-up and
// reroute inside a round, so a timed-out or cancelled compile stops at
// the next net boundary instead of finishing the remaining rounds; the
// partial routing state is discarded and ctx's error returned.
//
// Every PathFinder negotiation round is one "route-round" obs span
// recording how many nets were ripped up and rerouted and, once the round
// completes, the overflow remaining after it; a round cut short by
// cancellation ends its span without the overflow. A journal reads the
// span's end as a progress heartbeat. The probe is consulted once per
// round, never per cell.
func RouteContext(ctx context.Context, g *Grid, nets []Net, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	for _, n := range nets {
		for _, p := range n.Pins {
			if !g.In(p) {
				return nil, fmt.Errorf("route: net %d pin %v outside grid", n.ID, p)
			}
		}
	}
	res := &Result{Routes: map[int][]Cell{}}
	order := make([]int, len(nets))
	for i := range order {
		order[i] = i
	}
	// Longest nets first: they have the fewest detour options.
	sort.SliceStable(order, func(a, b int) bool {
		return pinSpan(nets[order[a]]) > pinSpan(nets[order[b]])
	})

	routed := map[int][]Cell{}
	// A result with overflowed cells is unusable (the geometry would merge
	// dual defects), so the iteration budget is soft: when the budget runs
	// out with overflow still shrinking, negotiation continues until it
	// stalls for three rounds or hits the hard cap.
	best := 1 << 30
	stall := 0
	for iter := 0; iter < 8*opt.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("route: %w", err)
		}
		if iter >= opt.MaxIters && stall >= 3 {
			break
		}
		res.Iters = iter + 1
		// First round routes everything; later rounds rip up and reroute
		// only the nets sitting on overflowed cells, one at a time, so
		// that the first net to move resolves the conflict and the rest
		// can keep their paths (the PathFinder negotiation discipline).
		var toRoute []int
		if iter == 0 {
			toRoute = order
		} else {
			cap16 := int16(opt.CellCapacity)
			for _, oi := range order {
				n := nets[oi]
				for _, c := range routed[n.ID] {
					if g.usage[g.idx(c)] > cap16 {
						toRoute = append(toRoute, oi)
						break
					}
				}
			}
		}
		sp, _ := obs.StartSpan(ctx, "route-round")
		if sp != nil {
			sp.SetAttr("round", iter+1)
			sp.SetAttr("ripped", len(toRoute))
		}
		for _, oi := range toRoute {
			if err := ctx.Err(); err != nil {
				sp.End()
				return nil, fmt.Errorf("route: %w", err)
			}
			n := nets[oi]
			if old, ok := routed[n.ID]; ok {
				g.release(old)
			}
			cells := g.routeNet(n, opt)
			if cells == nil {
				delete(routed, n.ID)
				continue
			}
			g.occupy(cells)
			routed[n.ID] = cells
		}
		// Assess overflow and build up history on over-capacity cells.
		overflow := 0
		cap16 := int16(opt.CellCapacity)
		for i, u := range g.usage {
			if u > cap16 {
				overflow++
				g.history[i] += float64(u - cap16)
			}
		}
		res.Overflow = overflow
		if sp != nil {
			sp.SetAttr("overflow", overflow)
			sp.End()
		}
		if overflow == 0 {
			break
		}
		if overflow < best {
			best = overflow
			stall = 0
		} else {
			stall++
		}
	}
	// Collect results.
	failedSet := map[int]bool{}
	for _, n := range nets {
		cells, ok := routed[n.ID]
		if !ok {
			failedSet[n.ID] = true
			res.Failed = append(res.Failed, n.ID)
			continue
		}
		res.Routes[n.ID] = cells
		distinct := map[Cell]bool{}
		for _, p := range n.Pins {
			distinct[p] = true
		}
		res.Wirelength += len(cells) - len(distinct)
		for _, c := range cells {
			if g.Blocked(c) {
				res.Squeezed++
			}
		}
	}
	sort.Ints(res.Failed)
	return res, nil
}

func pinSpan(n Net) int {
	if len(n.Pins) == 0 {
		return 0
	}
	lo, hi := n.Pins[0], n.Pins[0]
	for _, p := range n.Pins {
		lo = Cell{min(lo.X, p.X), min(lo.Y, p.Y), min(lo.Z, p.Z)}
		hi = Cell{max(hi.X, p.X), max(hi.Y, p.Y), max(hi.Z, p.Z)}
	}
	return hi.Manhattan(lo)
}

func (g *Grid) occupy(cells []Cell) {
	for _, c := range cells {
		g.usage[g.idx(c)]++
	}
}

func (g *Grid) release(cells []Cell) {
	for _, c := range cells {
		g.usage[g.idx(c)]--
	}
}

// routeNet routes one multi-pin net as a Steiner-ish tree: the first pin
// seeds the tree; every further pin is connected by an A* search targeting
// any tree cell. Returns nil on failure.
func (g *Grid) routeNet(n Net, opt Options) []Cell {
	if len(n.Pins) == 0 {
		return nil
	}
	// treeOrder mirrors the tree set in insertion order: the heuristic
	// sample below must not depend on map iteration order, or the routed
	// wirelength varies run to run for the same seed.
	tree := map[Cell]bool{n.Pins[0]: true}
	treeOrder := []Cell{n.Pins[0]}
	for _, pin := range n.Pins[1:] {
		if tree[pin] {
			continue
		}
		path := g.astarToSet(pin, tree, treeOrder, opt)
		if path == nil {
			return nil
		}
		for _, c := range path {
			if !tree[c] {
				tree[c] = true
				treeOrder = append(treeOrder, c)
			}
		}
	}
	cells := make([]Cell, 0, len(tree))
	for c := range tree {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.Z != b.Z {
			return a.Z < b.Z
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		if a.X != b.X {
			return a.X < b.X
		}
		return false
	})
	return cells
}

// astarToSet finds a cheapest path from src to any cell of targets within
// a restricted region, growing the region on failure.
func (g *Grid) astarToSet(src Cell, targets map[Cell]bool, targetOrder []Cell, opt Options) []Cell {
	// Region: bbox of src and targets.
	lo, hi := src, src
	for t := range targets {
		lo = Cell{min(lo.X, t.X), min(lo.Y, t.Y), min(lo.Z, t.Z)}
		hi = Cell{max(hi.X, t.X), max(hi.Y, t.Y), max(hi.Z, t.Z)}
	}
	for inflate := opt.RegionInflate; ; inflate *= 2 {
		rlo := Cell{max(0, lo.X-inflate), max(0, lo.Y-inflate), max(0, lo.Z-inflate)}
		rhi := Cell{min(g.NX-1, hi.X+inflate), min(g.NY-1, hi.Y+inflate), min(g.NZ-1, hi.Z+inflate)}
		if path := g.astarRegion(src, targets, targetOrder, rlo, rhi, opt); path != nil {
			return path
		}
		// Stop once the region covers the whole grid.
		if rlo == (Cell{0, 0, 0}) && rhi == (Cell{g.NX - 1, g.NY - 1, g.NZ - 1}) {
			return nil
		}
	}
}

type pqItem struct {
	cell  Cell
	f, gc float64
	index int
}

type pq []*pqItem

func (p pq) Len() int           { return len(p) }
func (p pq) Less(i, j int) bool { return p[i].f < p[j].f }
func (p pq) Swap(i, j int)      { p[i], p[j] = p[j], p[i]; p[i].index = i; p[j].index = j }
func (p *pq) Push(x any)        { it := x.(*pqItem); it.index = len(*p); *p = append(*p, it) }
func (p *pq) Pop() any          { old := *p; n := len(old); it := old[n-1]; *p = old[:n-1]; return it }

func (g *Grid) astarRegion(src Cell, targets map[Cell]bool, targetOrder []Cell, rlo, rhi Cell, opt Options) []Cell {
	// For large target trees, scanning every target per heuristic
	// evaluation dominates; sample a bounded subset, strided over the
	// insertion-ordered target list so the pick is deterministic AND
	// spread across the tree (a map-range pick here made routed
	// wirelength vary run to run). The sampled heuristic can overestimate
	// slightly (the true nearest target may be unsampled), trading strict
	// A* optimality for speed — acceptable inside the negotiated router.
	const maxSample = 24
	sample := targetOrder
	if len(targetOrder) > maxSample {
		sample = make([]Cell, 0, maxSample)
		stride := len(targetOrder) / maxSample
		for i := 0; i < len(targetOrder) && len(sample) < maxSample; i += stride {
			sample = append(sample, targetOrder[i])
		}
	}
	h := func(c Cell) float64 {
		best := 1 << 30
		for _, t := range sample {
			if d := c.Manhattan(t); d < best {
				best = d
			}
		}
		return float64(best)
	}
	cellCost := func(c Cell) float64 {
		i := g.idx(c)
		cost := 1.0 + opt.HistoryFactor*g.history[i]
		// Below capacity the cell is free of sharing cost; at or above it
		// the present penalty grows with the would-be excess.
		if u := int(g.usage[i]); u+1 > opt.CellCapacity {
			cost += opt.PresentFactor * float64(u+1-opt.CellCapacity)
		}
		return cost
	}
	open := &pq{}
	heap.Init(open)
	gScore := map[Cell]float64{src: 0}
	parent := map[Cell]Cell{}
	heap.Push(open, &pqItem{cell: src, f: h(src)})
	closed := map[Cell]bool{}
	for open.Len() > 0 {
		cur := heap.Pop(open).(*pqItem)
		if closed[cur.cell] {
			continue
		}
		closed[cur.cell] = true
		if targets[cur.cell] {
			// Reconstruct.
			var path []Cell
			for c := cur.cell; ; {
				path = append(path, c)
				p, ok := parent[c]
				if !ok {
					break
				}
				c = p
			}
			return path
		}
		for _, d := range neighbors6 {
			nxt := cur.cell.Add(d)
			if nxt.X < rlo.X || nxt.X > rhi.X || nxt.Y < rlo.Y || nxt.Y > rhi.Y ||
				nxt.Z < rlo.Z || nxt.Z > rhi.Z {
				continue
			}
			ng := gScore[cur.cell] + cellCost(nxt)
			if g.Blocked(nxt) {
				ng += opt.BlockPenalty
			}
			if old, ok := gScore[nxt]; ok && ng >= old {
				continue
			}
			gScore[nxt] = ng
			parent[nxt] = cur.cell
			heap.Push(open, &pqItem{cell: nxt, gc: ng, f: ng + h(nxt)})
		}
	}
	return nil
}

// Validate checks the routing result: every route connects all of its
// net's pins through adjacent or identical cells, avoids obstacles, and no
// cell carries more than capacity nets when overflow is reported as zero.
func (r *Result) Validate(g *Grid, nets []Net) error {
	return r.ValidateCapacity(g, nets, 1)
}

// ValidateCapacity is Validate with an explicit per-cell net capacity.
func (r *Result) ValidateCapacity(g *Grid, nets []Net, capacity int) error {
	users := map[Cell]int{}
	byID := map[int]Net{}
	for _, n := range nets {
		byID[n.ID] = n
	}
	squeezed := 0
	for id, cells := range r.Routes {
		n := byID[id]
		set := map[Cell]bool{}
		for _, c := range cells {
			if g.Blocked(c) {
				squeezed++
			}
			set[c] = true
			if r.Overflow == 0 {
				users[c]++
				if users[c] > capacity {
					return fmt.Errorf("route: cell %v carries %d nets (capacity %d)", c, users[c], capacity)
				}
			}
		}
		for _, p := range n.Pins {
			if !set[p] {
				return fmt.Errorf("route: net %d missing pin %v", id, p)
			}
		}
		if !connected(set, n.Pins) {
			return fmt.Errorf("route: net %d tree disconnected", id)
		}
	}
	if squeezed != r.Squeezed {
		return fmt.Errorf("route: squeeze count %d does not match result %d", squeezed, r.Squeezed)
	}
	return nil
}

func connected(set map[Cell]bool, pins []Cell) bool {
	if len(pins) == 0 {
		return true
	}
	visited := map[Cell]bool{}
	stack := []Cell{pins[0]}
	visited[pins[0]] = true
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range neighbors6 {
			n := c.Add(d)
			if set[n] && !visited[n] {
				visited[n] = true
				stack = append(stack, n)
			}
		}
	}
	for _, p := range pins {
		if !visited[p] {
			return false
		}
	}
	return true
}

// Bounds returns the bounding cells of all routes (lo, hi); ok is false
// when there are no routed cells.
func (r *Result) Bounds() (lo, hi Cell, ok bool) {
	first := true
	for _, cells := range r.Routes {
		for _, c := range cells {
			if first {
				lo, hi, first = c, c, false
				continue
			}
			lo = Cell{min(lo.X, c.X), min(lo.Y, c.Y), min(lo.Z, c.Z)}
			hi = Cell{max(hi.X, c.X), max(hi.Y, c.Y), max(hi.Z, c.Z)}
		}
	}
	return lo, hi, !first
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
