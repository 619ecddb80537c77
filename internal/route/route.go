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
	"math"
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
	history    []int32 // overflow accumulated over the rounds
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
		history: make([]int32, n),
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

// Blocked reports whether a cell is a static obstacle.
func (g *Grid) Blocked(c Cell) bool { return !g.In(c) || g.blocked[g.idx(c)] }

// Net is one multi-pin net to route.
type Net struct {
	ID   int
	Pins []Cell
}

// Options tunes the router.
type Options struct {
	// MaxIters is the soft budget of PathFinder negotiation rounds
	// (default 8). Once it is spent, negotiation stops after three rounds
	// without a new lowest overflow, but while overflow keeps shrinking
	// it goes on, up to 8×MaxIters rounds.
	MaxIters int
	// CellCapacity is the number of distinct nets a cell may carry
	// without overflowing (default 1). The doubled lattice admits two
	// dual strands per paper-unit cell at half-unit offsets while keeping
	// the one-unit dual–dual separation, so callers modeling that
	// geometry pass 2.
	CellCapacity int
}

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 8
	}
	if o.CellCapacity <= 0 {
		o.CellCapacity = 1
	}
	return o
}

// Search costs and the restricted region.
const (
	// regionInflate is the restricted-region margin around the box of a
	// search's source and the net's tree, in cells.
	regionInflate = 4
	// presentFactor scales the present-sharing penalty per extra user;
	// historyFactor scales accumulated history.
	presentFactor = 4
	historyFactor = 1
	// blockPenalty is the cost of entering a blocked cell: obstacles are
	// soft walls so a pin walled in by tightly packed distillation boxes
	// can still be reached; such squeezes are counted in Result.Squeezed
	// and should stay near zero.
	blockPenalty = 500
)

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
	return negotiate(ctx, g, nets, opt, nil)
}

// negotiate is RouteContext. When step is non-nil it runs after every
// routed net and at the end of every round, so a test can audit the
// search scratch where the router updates it.
func negotiate(ctx context.Context, g *Grid, nets []Net, opt Options, step func(*search)) (*Result, error) {
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
				s.use(old, -1)
			}
			cells := s.routeNet(n)
			if cells == nil {
				delete(routed, n.ID)
			} else {
				s.use(cells, 1)
				routed[n.ID] = cells
			}
			if step != nil {
				step(s)
			}
		}
		// Assess overflow and build up history on over-capacity cells.
		overflow := 0
		cap16 := int16(opt.CellCapacity)
		for i, u := range g.usage {
			if u > cap16 {
				overflow++
				g.history[i] += int32(u - cap16)
				s.cells[i].entry = s.entry(i)
			}
		}
		if step != nil {
			step(s)
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

// search is the scratch one RouteContext call routes every net with. Its
// per-cell state lives in dense arrays indexed by Grid.idx, and epoch
// stamps say which entries belong to the current A* search or the current
// net's tree, so nothing is cleared between searches (only when a stamp
// wraps) and a search allocates nothing once the heap and the tree list
// have grown.
type search struct {
	g     *Grid
	opt   Options
	cells []searchCell
	// mark[i] is epoch while cell i is open in the running A* search and
	// epoch+1 once it is closed; any other value means unseen.
	mark []uint16
	// inTree[i] == tree when cell i is on the current net's tree.
	inTree []uint16
	// epoch is even and steps by two per search; tree steps by one per
	// net.
	epoch, tree uint16
	open        openHeap
	// treeOrder lists the tree's cells in insertion order, for the
	// heuristic sample; treeLo and treeHi bound them.
	treeOrder      []Cell
	treeLo, treeHi Cell
	// sx, sy and sz are the heuristic sample's coordinates, as columns.
	sx, sy, sz []int32
	// searches and expansions count the round's A* searches and
	// expanded cells, for its route-round span.
	searches, expansions int
}

// searchCell is one grid cell's A* record.
type searchCell struct {
	g      int64 // cheapest known cost from the source (valid while marked)
	parent int32 // predecessor on that path, −1 at the source
	entry  int32 // cost of stepping into the cell: search.entry, kept current
}

func newSearch(g *Grid, opt Options) *search {
	n := g.NX * g.NY * g.NZ
	s := &search{g: g, opt: opt, cells: make([]searchCell, n), mark: make([]uint16, n), inTree: make([]uint16, n)}
	for i := range s.cells {
		s.cells[i].entry = s.entry(i)
	}
	return s
}

// entry is the cost of stepping into cell i: one for the step, the
// cell's history, the present-sharing penalty for every user beyond
// capacity the step would make (below capacity a cell is free of sharing
// cost), and blockPenalty on an obstacle. The router keeps each cell's
// searchCell.entry equal to it: use refreshes the cells whose usage
// changes, the round-end pass those whose history grows.
func (s *search) entry(i int) int32 {
	g := s.g
	cost := 1 + historyFactor*g.history[i]
	if over := int(g.usage[i]) + 1 - s.opt.CellCapacity; over > 0 {
		cost += presentFactor * int32(over)
	}
	if g.blocked[i] {
		cost += blockPenalty
	}
	return cost
}

// use adds d users to each of cells and refreshes their entry costs.
func (s *search) use(cells []Cell, d int16) {
	g := s.g
	for _, c := range cells {
		i := g.idx(c)
		g.usage[i] += d
		s.cells[i].entry = s.entry(i)
	}
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
	s.inTree[i] = s.tree
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
		clear(s.inTree)
		s.tree = 1
	}
	g := s.g
	s.treeOrder = s.treeOrder[:0]
	s.treeLo, s.treeHi = n.Pins[0], n.Pins[0]
	s.addToTree(n.Pins[0], g.idx(n.Pins[0]))
	for _, pin := range n.Pins[1:] {
		if s.inTree[g.idx(pin)] == s.tree {
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
// restricted region and adds the path to the tree. The region is the box
// of src and the tree, inflated by regionInflate; every cell is
// enterable (a blocked one costs blockPenalty), so the search always
// reaches the tree inside it.
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
	stride := max(1, len(s.treeOrder)/maxSample)
	s.sx, s.sy, s.sz = s.sx[:0], s.sy[:0], s.sz[:0]
	for i := 0; i < len(s.treeOrder) && len(s.sx) < maxSample; i += stride {
		c := s.treeOrder[i]
		s.sx, s.sy, s.sz = append(s.sx, int32(c.X)), append(s.sy, int32(c.Y)), append(s.sz, int32(c.Z))
	}
	lo := Cell{min(src.X, s.treeLo.X), min(src.Y, s.treeLo.Y), min(src.Z, s.treeLo.Z)}
	hi := Cell{max(src.X, s.treeHi.X), max(src.Y, s.treeHi.Y), max(src.Z, s.treeHi.Z)}
	rlo := Cell{max(0, lo.X-regionInflate), max(0, lo.Y-regionInflate), max(0, lo.Z-regionInflate)}
	rhi := Cell{min(g.NX-1, hi.X+regionInflate), min(g.NY-1, hi.Y+regionInflate), min(g.NZ-1, hi.Z+regionInflate)}
	hit := s.astar(src, rlo, rhi)
	if hit < 0 {
		return false
	}
	// Walk the path back from the tree cell it reached to src.
	for i := hit; i >= 0; i = int(s.cells[i].parent) {
		if s.inTree[i] != s.tree {
			s.addToTree(g.cell(i), i)
		}
	}
	return true
}

// astar searches from src to the nearest tree cell inside the region
// [rlo, rhi] and returns that cell's index, or −1 when none is reachable.
// The path is left in the parent links. Because the sampled heuristic is
// inconsistent, a closed cell's cost and parent may still be lowered;
// only its re-expansion is skipped.
func (s *search) astar(src, rlo, rhi Cell) int {
	s.searches++
	if s.epoch >= math.MaxUint16-1 { // used up: a stale mark could alias the new search
		clear(s.mark)
		s.epoch = 0
	}
	s.epoch += 2
	closed := s.epoch + 1
	nx, ny := s.g.NX, s.g.NY
	nxy := nx * ny
	si := s.g.idx(src)
	s.cells[si].g, s.cells[si].parent = 0, -1
	s.mark[si] = s.epoch
	s.open = s.open[:0]
	s.open.push(openItem{f: s.nearest(src.X, src.Y, src.Z), idx: int32(si)})
	for len(s.open) > 0 {
		ci := int(s.open.pop().idx)
		if s.mark[ci] == closed {
			continue
		}
		s.mark[ci] = closed
		if s.inTree[ci] == s.tree {
			return ci
		}
		s.expansions++
		// Every cell on the frontier lies inside the region, so each
		// step tests only the coordinate it changes; the steps keep the
		// order +x, −x, +y, −y, +z, −z.
		r := ci / nx
		x, z := ci-r*nx, r/ny
		y := r - z*ny
		g := s.cells[ci].g
		if x < rhi.X {
			if ng, ok := s.lower(ci, ci+1, g); ok {
				s.open.push(openItem{f: ng + s.nearest(x+1, y, z), idx: int32(ci + 1)})
			}
		}
		if x > rlo.X {
			if ng, ok := s.lower(ci, ci-1, g); ok {
				s.open.push(openItem{f: ng + s.nearest(x-1, y, z), idx: int32(ci - 1)})
			}
		}
		if y < rhi.Y {
			if ng, ok := s.lower(ci, ci+nx, g); ok {
				s.open.push(openItem{f: ng + s.nearest(x, y+1, z), idx: int32(ci + nx)})
			}
		}
		if y > rlo.Y {
			if ng, ok := s.lower(ci, ci-nx, g); ok {
				s.open.push(openItem{f: ng + s.nearest(x, y-1, z), idx: int32(ci - nx)})
			}
		}
		if z < rhi.Z {
			if ng, ok := s.lower(ci, ci+nxy, g); ok {
				s.open.push(openItem{f: ng + s.nearest(x, y, z+1), idx: int32(ci + nxy)})
			}
		}
		if z > rlo.Z {
			if ng, ok := s.lower(ci, ci-nxy, g); ok {
				s.open.push(openItem{f: ng + s.nearest(x, y, z-1), idx: int32(ci - nxy)})
			}
		}
	}
	return -1
}

// lower offers cell ni the path through ci, whose cost is g, and
// reports the path's cost when it is an improvement. A cell seen in this
// search keeps the cheaper of its paths, ties going to the earlier one;
// a closed cell may still be lowered but stays closed.
func (s *search) lower(ci, ni int, g int64) (int64, bool) {
	c := &s.cells[ni]
	ng := g + int64(c.entry)
	m := s.mark[ni]
	if m-s.epoch <= 1 && ng >= c.g {
		return 0, false
	}
	c.g, c.parent = ng, int32(ci)
	if m != s.epoch+1 {
		s.mark[ni] = s.epoch
	}
	return ng, true
}

// nearest is the A* heuristic: the distance from (x, y, z) to the nearest
// sampled tree cell.
func (s *search) nearest(x, y, z int) int64 {
	sx := s.sx
	sy, sz := s.sy[:len(sx)], s.sz[:len(sx)]
	cx, cy, cz := int32(x), int32(y), int32(z)
	best := int32(1 << 30)
	for k := range sx {
		dx, dy, dz := cx-sx[k], cy-sy[k], cz-sz[k]
		// |d| without a branch: d>>31 is 0 or −1.
		dx = (dx ^ dx>>31) - dx>>31
		dy = (dy ^ dy>>31) - dy>>31
		dz = (dz ^ dz>>31) - dz>>31
		best = min(best, dx+dy+dz)
	}
	return int64(best)
}

// openItem is one A* frontier entry; a cell may have several, and all
// but the cheapest are skipped once it is closed.
type openItem struct {
	f   int64
	idx int32
}

// openHeap is a binary min-heap on f. push and pop make container/heap's
// up and down comparisons, in its order, but move a hole instead of
// swapping: the item being sifted is the one every comparison reads, so
// it is written once, where it stops. Entries with equal f therefore pop
// in exactly the order a container/heap gives them, and routes stay
// bit-identical.
type openHeap []openItem

func (h *openHeap) push(it openItem) {
	q := append(*h, it)
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(it.f < q[i].f) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = it
	*h = q
}

func (h *openHeap) pop() openItem {
	q := *h
	n := len(q) - 1
	top, last := q[0], q[n]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].f < q[j].f {
			j = j2 // right child
		}
		if !(q[j].f < last.f) {
			break
		}
		q[i] = q[j]
		i = j
	}
	q[i] = last
	*h = q[:n]
	return top
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
		if !Connected(set, n.Pins) {
			return fmt.Errorf("route: net %d tree disconnected", id)
		}
	}
	if squeezed != r.Squeezed {
		return fmt.Errorf("route: squeeze count %d does not match result %d", squeezed, r.Squeezed)
	}
	return nil
}

// Connected reports whether pins all lie in one 6-connected component
// of set (true for no pins).
func Connected(set map[Cell]bool, pins []Cell) bool {
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

// NetIDs returns the routed net IDs in ascending order: consumers whose
// output lists nets iterate Routes in this order, never in map order.
func (r *Result) NetIDs() []int {
	ids := make([]int, 0, len(r.Routes))
	for id := range r.Routes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
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
