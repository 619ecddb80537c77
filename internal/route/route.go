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
	"math/bits"
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
				s.refresh(i)
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
// wraps) and a search allocates nothing once the queue and the tree list
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
	// maxEntry bounds every cell's entry cost from above: it is raised
	// wherever an entry is written and never lowered.
	maxEntry int32
	open     bucketQueue
	// treeOrder lists the tree's cells in insertion order, the order a
	// search seeds them in; treeLo and treeHi bound them.
	treeOrder      []Cell
	treeLo, treeHi Cell
	// searches and expansions count the round's A* searches and
	// expanded cells, for its route-round span.
	searches, expansions int
}

// searchCell is one grid cell's A* record.
type searchCell struct {
	g      int64 // cheapest known cost from the tree (valid while marked)
	parent int32 // predecessor on that path, −1 on the tree
	entry  int32 // cost of stepping into the cell: search.entry, kept current
}

func newSearch(g *Grid, opt Options) *search {
	n := g.NX * g.NY * g.NZ
	s := &search{g: g, opt: opt, cells: make([]searchCell, n), mark: make([]uint16, n), inTree: make([]uint16, n)}
	for i := range s.cells {
		s.refresh(i)
	}
	return s
}

// entry is the cost of stepping into cell i: one for the step, the
// cell's history, the present-sharing penalty for every user beyond
// capacity the step would make (below capacity a cell is free of sharing
// cost), and blockPenalty on an obstacle. The router keeps each cell's
// searchCell.entry equal to it through refresh: use refreshes the cells
// whose usage changes, the round-end pass those whose history grows.
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

// refresh recomputes cell i's entry cost and raises maxEntry to it.
func (s *search) refresh(i int) {
	e := s.entry(i)
	s.cells[i].entry = e
	s.maxEntry = max(s.maxEntry, e)
}

// use adds d users to each of cells and refreshes their entry costs.
func (s *search) use(cells []Cell, d int16) {
	g := s.g
	for _, c := range cells {
		i := g.idx(c)
		g.usage[i] += d
		s.refresh(i)
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
// seeds the tree; every further pin is joined to it by an A* search from
// the whole tree. The cells come back sorted by Grid.idx, that is by
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

// connect finds a cheapest path from any tree cell to pin within a
// restricted region and adds the path to the tree. The region is the box
// of pin and the tree, inflated by regionInflate; every cell is
// enterable (a blocked one costs blockPenalty), so the search always
// reaches pin inside it.
func (s *search) connect(pin Cell) bool {
	g := s.g
	lo := Cell{min(pin.X, s.treeLo.X), min(pin.Y, s.treeLo.Y), min(pin.Z, s.treeLo.Z)}
	hi := Cell{max(pin.X, s.treeHi.X), max(pin.Y, s.treeHi.Y), max(pin.Z, s.treeHi.Z)}
	rlo := Cell{max(0, lo.X-regionInflate), max(0, lo.Y-regionInflate), max(0, lo.Z-regionInflate)}
	rhi := Cell{min(g.NX-1, hi.X+regionInflate), min(g.NY-1, hi.Y+regionInflate), min(g.NZ-1, hi.Z+regionInflate)}
	i := s.astar(pin, rlo, rhi)
	if i < 0 {
		return false
	}
	// Walk the path back from pin to the tree cell it started from.
	for ; s.inTree[i] != s.tree; i = int(s.cells[i].parent) {
		s.addToTree(g.cell(i), i)
	}
	return true
}

// astar is one multi-source A* search from every tree cell, each seeded
// at cost 0 in tree-insertion order, to pin inside the region [rlo, rhi].
// It returns pin's index, or −1 when pin is unreachable, and leaves the
// path in the parent links. The heuristic, the Manhattan distance to pin,
// is consistent: every step costs at least 1 and changes the distance by
// exactly 1. So the popped f never decreases, every cell is closed at
// its cheapest cost, and the frontier is a monotone bucket queue that
// pops in the order f ascending, newest push first.
func (s *search) astar(pin, rlo, rhi Cell) int {
	s.searches++
	if s.epoch >= math.MaxUint16-1 { // used up: a stale mark could alias the new search
		clear(s.mark)
		s.epoch = 0
	}
	s.epoch += 2
	closed := s.epoch + 1
	g := s.g
	nx, ny := g.NX, g.NY
	nxy := nx * ny
	// The seeds' f spread over at most NX+NY+NZ−3 and a step raises f by
	// at most maxEntry+1, so every live f lies within this width of the
	// popped one.
	q := &s.open
	q.reset(g.NX + g.NY + g.NZ + int(s.maxEntry) + 2)
	for _, c := range s.treeOrder {
		i := g.idx(c)
		s.cells[i].g, s.cells[i].parent = 0, -1
		s.mark[i] = s.epoch
		q.push(int64(c.Manhattan(pin)), i)
	}
	pi := g.idx(pin)
	for q.n > 0 {
		ci := q.pop()
		if s.mark[ci] == closed {
			continue
		}
		s.mark[ci] = closed
		if ci == pi {
			return ci
		}
		s.expansions++
		// Every cell on the frontier lies inside the region, so each
		// step tests only the coordinate it changes; the steps keep the
		// order +x, −x, +y, −y, +z, −z. A step changes the distance to
		// pin by one, up when it moves away from pin on its axis.
		r := ci / nx
		x, z := ci-r*nx, r/ny
		y := r - z*ny
		gc := s.cells[ci].g
		h := q.cur - gc
		if x < rhi.X {
			if ng, ok := s.lower(ci, ci+1, gc); ok {
				q.push(ng+away(h, x >= pin.X), ci+1)
			}
		}
		if x > rlo.X {
			if ng, ok := s.lower(ci, ci-1, gc); ok {
				q.push(ng+away(h, x <= pin.X), ci-1)
			}
		}
		if y < rhi.Y {
			if ng, ok := s.lower(ci, ci+nx, gc); ok {
				q.push(ng+away(h, y >= pin.Y), ci+nx)
			}
		}
		if y > rlo.Y {
			if ng, ok := s.lower(ci, ci-nx, gc); ok {
				q.push(ng+away(h, y <= pin.Y), ci-nx)
			}
		}
		if z < rhi.Z {
			if ng, ok := s.lower(ci, ci+nxy, gc); ok {
				q.push(ng+away(h, z >= pin.Z), ci+nxy)
			}
		}
		if z > rlo.Z {
			if ng, ok := s.lower(ci, ci-nxy, gc); ok {
				q.push(ng+away(h, z <= pin.Z), ci-nxy)
			}
		}
	}
	return -1
}

// away is the distance to pin after a step from a cell at distance h:
// h+1 when the step moves away from pin on its axis, h−1 otherwise.
func away(h int64, up bool) int64 {
	if up {
		return h + 1
	}
	return h - 1
}

// lower offers cell ni the path through ci, whose cost is g, and reports
// the path's cost when it is an improvement. A cell seen in this search
// keeps the cheaper of its paths, ties going to the earlier one. A closed
// cell is never improved: the heuristic is consistent.
func (s *search) lower(ci, ni int, g int64) (int64, bool) {
	c := &s.cells[ni]
	ng := g + int64(c.entry)
	if s.mark[ni]-s.epoch <= 1 && ng >= c.g {
		return 0, false
	}
	c.g, c.parent = ng, int32(ci)
	s.mark[ni] = s.epoch
	return ng, true
}

// bucketQueue is the A* frontier: a monotone priority queue on f (Dial
// 1969). It is a power-of-two ring of f buckets, each a LIFO list of
// cells, so it pops in the order f ascending, newest push first. Pushes
// must lie below cur plus the ring's width, and pops never go below cur.
// A popped slot is reused by the next push, so the slots follow the live
// frontier.
type bucketQueue struct {
	head  []int32      // per bucket, its newest slot; 0 when empty
	slots []queueEntry // slot 0 is never used, so 0 means none
	free  int32        // the most recently freed slot, 0 when none
	n     int          // live entries
	cur   int64        // the lowest f that can be live
}

type queueEntry struct {
	idx, next int32
}

// reset empties the queue and makes the ring at least width buckets wide.
func (q *bucketQueue) reset(width int) {
	if len(q.head) < width {
		q.head = make([]int32, 1<<bits.Len(uint(width-1)))
	} else {
		clear(q.head)
	}
	q.slots = append(q.slots[:0], queueEntry{})
	q.free, q.n, q.cur = 0, 0, math.MaxInt64
}

// push adds cell idx at key f.
func (q *bucketQueue) push(f int64, idx int) {
	b := &q.head[f&int64(len(q.head)-1)]
	k := q.free
	if k != 0 {
		q.free = q.slots[k].next
		q.slots[k] = queueEntry{int32(idx), *b}
	} else {
		k = int32(len(q.slots))
		q.slots = append(q.slots, queueEntry{int32(idx), *b})
	}
	*b = k
	q.n++
	q.cur = min(q.cur, f)
}

// pop removes and returns the newest cell of the lowest f, leaving cur at
// that f. The queue must not be empty.
func (q *bucketQueue) pop() int {
	mask := int64(len(q.head) - 1)
	for q.head[q.cur&mask] == 0 {
		q.cur++
	}
	b := &q.head[q.cur&mask]
	k := *b
	e := q.slots[k]
	*b = e.next
	q.slots[k].next = q.free
	q.free = k
	q.n--
	return int(e.idx)
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
