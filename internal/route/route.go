// Package route implements the dual-defect net routing stage (paper §3.6):
// each dual net is routed on a three-dimensional unit grid with A* search
// inside a restricted region, and congestion is resolved with the
// negotiation-based rip-up-and-reroute scheme of PathFinder (McMurchie &
// Ebeling): cell costs grow with present sharing and accumulated history
// until every cell is used by at most one net.
package route

import (
	"cmp"
	"context"
	"fmt"
	"slices"
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

// cell inverts idx.
func (g *Grid) cell(i int) Cell {
	x := i % g.NX
	i /= g.NX
	return Cell{x, i % g.NY, i / g.NY}
}

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
// recording how many nets were ripped up and rerouted, how many A*
// searches the round ran and how many cells they expanded, and, once the
// round completes, the overflow remaining after it; a round cut short by
// cancellation ends its span without the overflow. A journal reads the
// span's end as a progress heartbeat. The probe is consulted once per
// round, never per cell: the counters are plain ints in the search
// scratch.
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

	s := newSearch(g, opt)
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
		s.searches, s.expansions = 0, 0
		for _, oi := range toRoute {
			if err := ctx.Err(); err != nil {
				s.endRound(sp)
				return nil, fmt.Errorf("route: %w", err)
			}
			n := nets[oi]
			if old, ok := routed[n.ID]; ok {
				g.release(old)
			}
			cells := s.routeNet(n)
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
			s.endRound(sp)
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
	for _, n := range nets {
		cells, ok := routed[n.ID]
		if !ok {
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

// search is the scratch one RouteContext call routes every net with. Its
// per-cell state lives in one dense array indexed by Grid.idx, and epoch
// stamps say which entries belong to the current A* search or the current
// net's tree, so nothing is cleared between searches and a search
// allocates nothing once the heap and the tree list have grown.
type search struct {
	g     *Grid
	opt   Options
	cells []searchCell
	// epoch stamps searchCell.seen and .closed for the running A* search;
	// tree stamps searchCell.inTree for the net being routed.
	epoch, tree uint32
	open        openHeap
	// treeOrder lists the tree's cells in insertion order, for the
	// heuristic sample; treeLo and treeHi bound them.
	treeOrder      []Cell
	treeLo, treeHi Cell
	sample         []Cell
	stride         [6]int // Grid.idx offset of each neighbors6 step
	// searches and expansions count the round's A* searches (region
	// retries included) and expanded cells, for its route-round span.
	searches, expansions int
}

// searchCell is one grid cell's A* and tree state.
type searchCell struct {
	gScore float64 // cheapest known cost from the source (valid when seen)
	parent int32   // predecessor on that path, −1 at the source
	seen   uint32  // == search.epoch when gScore and parent are set
	closed uint32  // == search.epoch once popped
	inTree uint32  // == search.tree when on the current net's tree
}

func newSearch(g *Grid, opt Options) *search {
	s := &search{g: g, opt: opt, cells: make([]searchCell, g.NX*g.NY*g.NZ)}
	for k, d := range neighbors6 {
		s.stride[k] = (d.Z*g.NY+d.Y)*g.NX + d.X
	}
	return s
}

// endRound records the round's A* counters on its span and ends it.
func (s *search) endRound(sp *obs.Span) {
	if sp != nil {
		sp.SetAttr("searches", s.searches)
		sp.SetAttr("expansions", s.expansions)
		sp.End()
	}
}

// addToTree puts cell c (index i) on the current net's tree.
func (s *search) addToTree(c Cell, i int) {
	s.cells[i].inTree = s.tree
	s.treeOrder = append(s.treeOrder, c)
	s.treeLo = Cell{min(s.treeLo.X, c.X), min(s.treeLo.Y, c.Y), min(s.treeLo.Z, c.Z)}
	s.treeHi = Cell{max(s.treeHi.X, c.X), max(s.treeHi.Y, c.Y), max(s.treeHi.Z, c.Z)}
}

// routeNet routes one multi-pin net as a Steiner-ish tree: the first pin
// seeds the tree; every further pin is connected by an A* search targeting
// any tree cell. The cells come back sorted by Grid.idx, that is by
// (Z, Y, X). Returns nil on failure.
func (s *search) routeNet(n Net) []Cell {
	if len(n.Pins) == 0 {
		return nil
	}
	s.tree++
	if s.tree == 0 { // wrapped: a stale stamp could alias the new tree
		for i := range s.cells {
			s.cells[i].inTree = 0
		}
		s.tree = 1
	}
	g := s.g
	s.treeOrder = s.treeOrder[:0]
	s.treeLo, s.treeHi = n.Pins[0], n.Pins[0]
	s.addToTree(n.Pins[0], g.idx(n.Pins[0]))
	for _, pin := range n.Pins[1:] {
		if s.cells[g.idx(pin)].inTree == s.tree {
			continue
		}
		if !s.connect(pin) {
			return nil
		}
	}
	cells := slices.Clone(s.treeOrder)
	slices.SortFunc(cells, func(a, b Cell) int { return cmp.Compare(g.idx(a), g.idx(b)) })
	return cells
}

// connect finds a cheapest path from src to any tree cell within a
// restricted region, growing the region on failure, and adds the path to
// the tree.
func (s *search) connect(src Cell) bool {
	g := s.g
	// The heuristic is the distance to the nearest of a bounded sample of
	// tree cells: scanning a large tree per evaluation would dominate. The
	// sample is strided over the insertion-ordered tree so the pick is
	// deterministic AND spread across the tree (a map-range pick here made
	// routed wirelength vary run to run). It can overestimate slightly
	// (the true nearest tree cell may be unsampled), trading strict A*
	// optimality for speed — acceptable inside the negotiated router.
	const maxSample = 24
	sample := s.treeOrder
	if len(sample) > maxSample {
		s.sample = s.sample[:0]
		stride := len(sample) / maxSample
		for i := 0; i < len(sample) && len(s.sample) < maxSample; i += stride {
			s.sample = append(s.sample, sample[i])
		}
		sample = s.sample
	}
	// Region: bbox of src and the tree.
	lo := Cell{min(src.X, s.treeLo.X), min(src.Y, s.treeLo.Y), min(src.Z, s.treeLo.Z)}
	hi := Cell{max(src.X, s.treeHi.X), max(src.Y, s.treeHi.Y), max(src.Z, s.treeHi.Z)}
	for inflate := s.opt.RegionInflate; ; inflate *= 2 {
		rlo := Cell{max(0, lo.X-inflate), max(0, lo.Y-inflate), max(0, lo.Z-inflate)}
		rhi := Cell{min(g.NX-1, hi.X+inflate), min(g.NY-1, hi.Y+inflate), min(g.NZ-1, hi.Z+inflate)}
		if hit := s.astar(src, sample, rlo, rhi); hit >= 0 {
			// Walk the path back from the tree cell it reached to src.
			for i := hit; i >= 0; i = int(s.cells[i].parent) {
				if s.cells[i].inTree != s.tree {
					s.addToTree(g.cell(i), i)
				}
			}
			return true
		}
		// Stop once the region covers the whole grid.
		if rlo == (Cell{0, 0, 0}) && rhi == (Cell{g.NX - 1, g.NY - 1, g.NZ - 1}) {
			return false
		}
	}
}

// astar searches from src to the nearest tree cell inside the region
// [rlo, rhi] and returns that cell's index, or −1 when none is reachable.
// The path is left in the parent links. Because the sampled heuristic is
// inconsistent, a closed cell's cost and parent may still be lowered;
// only its re-expansion is skipped.
func (s *search) astar(src Cell, sample []Cell, rlo, rhi Cell) int {
	g, opt := s.g, s.opt
	s.searches++
	s.epoch++
	if s.epoch == 0 { // wrapped: a stale stamp could alias the new search
		for i := range s.cells {
			s.cells[i].seen, s.cells[i].closed = 0, 0
		}
		s.epoch = 1
	}
	si := g.idx(src)
	s.cells[si] = searchCell{parent: -1, seen: s.epoch, inTree: s.cells[si].inTree}
	s.open = s.open[:0]
	s.open.push(openItem{f: nearest(src, sample), idx: si})
	for len(s.open) > 0 {
		ci := s.open.pop().idx
		cur := &s.cells[ci]
		if cur.closed == s.epoch {
			continue
		}
		cur.closed = s.epoch
		if cur.inTree == s.tree {
			return ci
		}
		s.expansions++
		c := g.cell(ci)
		for k, d := range neighbors6 {
			nxt := c.Add(d)
			if nxt.X < rlo.X || nxt.X > rhi.X || nxt.Y < rlo.Y || nxt.Y > rhi.Y ||
				nxt.Z < rlo.Z || nxt.Z > rhi.Z {
				continue
			}
			ni := ci + s.stride[k]
			// Below capacity the cell is free of sharing cost; at or above
			// it the present penalty grows with the would-be excess.
			cost := 1.0 + opt.HistoryFactor*g.history[ni]
			if u := int(g.usage[ni]); u+1 > opt.CellCapacity {
				cost += opt.PresentFactor * float64(u+1-opt.CellCapacity)
			}
			ng := cur.gScore + cost
			if g.blocked[ni] {
				ng += opt.BlockPenalty
			}
			next := &s.cells[ni]
			if next.seen == s.epoch && ng >= next.gScore {
				continue
			}
			next.gScore, next.parent, next.seen = ng, int32(ci), s.epoch
			s.open.push(openItem{f: ng + nearest(nxt, sample), idx: ni})
		}
	}
	return -1
}

// nearest is the A* heuristic: the distance from c to the nearest sampled
// tree cell.
func nearest(c Cell, sample []Cell) float64 {
	best := 1 << 30
	for _, t := range sample {
		if d := c.Manhattan(t); d < best {
			best = d
		}
	}
	return float64(best)
}

// openItem is one A* frontier entry; a cell may have several, and all
// but the cheapest are skipped once it is closed.
type openItem struct {
	f   float64
	idx int
}

// openHeap is a binary min-heap on f. push and pop are container/heap's
// Push and Pop with its up and down inlined, comparison for comparison,
// so entries with equal f pop in exactly the order a container/heap gives
// them, and routes stay bit-identical.
type openHeap []openItem

func (h *openHeap) push(it openItem) {
	*h = append(*h, it)
	q := *h
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].f < q[i].f) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *openHeap) pop() openItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].f < q[j].f {
			j = j2 // right child
		}
		if !(q[j].f < q[i].f) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
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
