package route

import (
	"cmp"
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"tqec/internal/obs"
)

// routeScan is an independent implementation of the router's rules,
// kept as its oracle. Each pin is joined to its net's tree by a textbook
// multi-source A*: every tree cell is seeded at cost 0 in tree-insertion
// order, the heuristic is the Manhattan distance to the pin, costs are
// float64 values read from the grid's history, usage and blocked arrays
// on every relax, a closed cell is skipped outright, and the frontier is
// a container/heap ordered by f and then newest push first, which is the
// order the kernel's bucket queue pops in. So every field of the Result,
// the grid's usage and history afterwards, and the searches and
// expansions counted must match the kernel's exactly. It keeps the retry
// with a doubled region margin that the kernel does not have: every cell
// is enterable, so the first search always reaches the pin, and a match
// in the search count shows the retry never ran.
func routeScan(ctx context.Context, g *Grid, nets []Net, opt Options) (*Result, scanCounts, error) {
	opt = opt.withDefaults()
	for _, n := range nets {
		for _, p := range n.Pins {
			if !g.In(p) {
				return nil, scanCounts{}, fmt.Errorf("route: net %d pin %v outside grid", n.ID, p)
			}
		}
	}
	res := &Result{Routes: map[int][]Cell{}}
	order := make([]int, len(nets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return pinSpan(nets[order[a]]) > pinSpan(nets[order[b]])
	})

	s := newScanSearch(g, opt)
	routed := map[int][]Cell{}
	best := 1 << 30
	stall := 0
	for iter := 0; iter < 8*opt.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, scanCounts{}, fmt.Errorf("route: %w", err)
		}
		if iter >= opt.MaxIters && stall >= 3 {
			break
		}
		res.Iters = iter + 1
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
		for _, oi := range toRoute {
			if err := ctx.Err(); err != nil {
				return nil, scanCounts{}, fmt.Errorf("route: %w", err)
			}
			n := nets[oi]
			if old, ok := routed[n.ID]; ok {
				for _, c := range old {
					g.usage[g.idx(c)]--
				}
			}
			cells := s.routeNet(n)
			if cells == nil {
				delete(routed, n.ID)
				continue
			}
			for _, c := range cells {
				g.usage[g.idx(c)]++
			}
			routed[n.ID] = cells
		}
		overflow := 0
		cap16 := int16(opt.CellCapacity)
		for i, u := range g.usage {
			if u > cap16 {
				overflow++
				g.history[i] += int32(u - cap16)
			}
		}
		res.Overflow = overflow
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
	return res, s.counts, nil
}

// scanCounts totals the oracle's A* searches and expanded cells.
type scanCounts struct {
	searches, expansions int
}

type scanSearch struct {
	g      *Grid
	opt    Options
	cells  []scanCell
	inTree []bool
	// search numbers the A* searches; a cell's seen and closed equal it
	// while the cell is seen or closed in the running one.
	search    int
	open      scanHeap
	pushes    int
	treeOrder []Cell
	counts    scanCounts
}

type scanCell struct {
	gScore       float64
	parent       int
	seen, closed int
}

func newScanSearch(g *Grid, opt Options) *scanSearch {
	n := g.NX * g.NY * g.NZ
	return &scanSearch{g: g, opt: opt, cells: make([]scanCell, n), inTree: make([]bool, n)}
}

func (s *scanSearch) routeNet(n Net) []Cell {
	if len(n.Pins) == 0 {
		return nil
	}
	g := s.g
	for _, c := range s.treeOrder {
		s.inTree[g.idx(c)] = false
	}
	s.treeOrder = append(s.treeOrder[:0], n.Pins[0])
	s.inTree[g.idx(n.Pins[0])] = true
	for _, pin := range n.Pins[1:] {
		if s.inTree[g.idx(pin)] {
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

func (s *scanSearch) connect(pin Cell) bool {
	g := s.g
	lo, hi := pin, pin
	for _, c := range s.treeOrder {
		lo = Cell{min(lo.X, c.X), min(lo.Y, c.Y), min(lo.Z, c.Z)}
		hi = Cell{max(hi.X, c.X), max(hi.Y, c.Y), max(hi.Z, c.Z)}
	}
	for inflate := regionInflate; ; inflate *= 2 {
		rlo := Cell{max(0, lo.X-inflate), max(0, lo.Y-inflate), max(0, lo.Z-inflate)}
		rhi := Cell{min(g.NX-1, hi.X+inflate), min(g.NY-1, hi.Y+inflate), min(g.NZ-1, hi.Z+inflate)}
		if s.astar(pin, rlo, rhi) {
			for i := g.idx(pin); !s.inTree[i]; i = s.cells[i].parent {
				s.inTree[i] = true
				s.treeOrder = append(s.treeOrder, g.cell(i))
			}
			return true
		}
		if rlo == (Cell{0, 0, 0}) && rhi == (Cell{g.NX - 1, g.NY - 1, g.NZ - 1}) {
			return false
		}
	}
}

// astar reports whether pin is reachable from the tree inside [rlo, rhi],
// leaving the path in the parent links.
func (s *scanSearch) astar(pin, rlo, rhi Cell) bool {
	g, opt := s.g, s.opt
	s.search++
	s.counts.searches++
	s.open = s.open[:0]
	for _, c := range s.treeOrder {
		i := g.idx(c)
		s.cells[i] = scanCell{parent: -1, seen: s.search}
		s.pushOpen(float64(c.Manhattan(pin)), i)
	}
	for s.open.Len() > 0 {
		ci := heap.Pop(&s.open).(scanItem).idx
		cur := &s.cells[ci]
		if cur.closed == s.search {
			continue
		}
		cur.closed = s.search
		c := g.cell(ci)
		if c == pin {
			return true
		}
		s.counts.expansions++
		for _, d := range neighbors6 {
			nxt := c.Add(d)
			if nxt.X < rlo.X || nxt.X > rhi.X || nxt.Y < rlo.Y || nxt.Y > rhi.Y ||
				nxt.Z < rlo.Z || nxt.Z > rhi.Z {
				continue
			}
			ni := g.idx(nxt)
			next := &s.cells[ni]
			if next.closed == s.search {
				continue
			}
			cost := 1.0 + historyFactor*float64(g.history[ni])
			if u := int(g.usage[ni]); u+1 > opt.CellCapacity {
				cost += presentFactor * float64(u+1-opt.CellCapacity)
			}
			if g.blocked[ni] {
				cost += blockPenalty
			}
			ng := cur.gScore + cost
			if next.seen == s.search && ng >= next.gScore {
				continue
			}
			next.gScore, next.parent, next.seen = ng, ci, s.search
			s.pushOpen(ng+float64(nxt.Manhattan(pin)), ni)
		}
	}
	return false
}

func (s *scanSearch) pushOpen(f float64, idx int) {
	s.pushes++
	heap.Push(&s.open, scanItem{f: f, seq: s.pushes, idx: idx})
}

// scanItem is one frontier entry; seq numbers the pushes.
type scanItem struct {
	f   float64
	seq int
	idx int
}

// scanHeap orders the frontier by f ascending, then newest push first.
type scanHeap []scanItem

func (h scanHeap) Len() int { return len(h) }
func (h scanHeap) Less(i, j int) bool {
	return h[i].f < h[j].f || h[i].f == h[j].f && h[i].seq > h[j].seq
}
func (h scanHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *scanHeap) Push(x any)   { *h = append(*h, x.(scanItem)) }
func (h *scanHeap) Pop() any {
	q := *h
	it := q[len(q)-1]
	*h = q[:len(q)-1]
	return it
}

// routeCase is one router input: a grid recipe, the nets and the options.
type routeCase struct {
	nx, ny, nz int
	boxes      [][2]Cell
	nets       []Net
	opt        Options
}

func (rc routeCase) grid(t testing.TB) *Grid {
	t.Helper()
	g, err := NewGrid(rc.nx, rc.ny, rc.nz)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range rc.boxes {
		g.BlockBox(b[0], b[1])
	}
	return g
}

// crossingCase is a one-plane tangle of three nets whose overflow keeps
// reaching a new low often enough (3, 2, 2, 2, 1, 2, 1, 2 over the
// rounds) that negotiation runs to the hard round cap, 8×MaxIters, and
// still ends with shared cells.
func crossingCase() routeCase {
	return routeCase{nx: 4, ny: 4, nz: 1, opt: Options{MaxIters: 1}, nets: []Net{
		{ID: 0, Pins: []Cell{{3, 1, 0}, {1, 2, 0}}},
		{ID: 1, Pins: []Cell{{3, 0, 0}, {3, 3, 0}}},
		{ID: 2, Pins: []Cell{{2, 1, 0}, {0, 1, 0}}},
	}}
}

// thinCase is a long thin empty grid whose net's tree spans x 0..40
// when the last pin, at the far end, is joined: the seeds' f spread over
// 40, while the largest entry cost is 1. A bucket ring sized by the step
// bound (largest entry cost + 2) alone would alias them.
func thinCase() routeCase {
	return routeCase{nx: 64, ny: 2, nz: 2, nets: []Net{
		{ID: 5, Pins: []Cell{{0, 0, 0}, {40, 0, 0}, {63, 1, 1}}},
	}}
}

// randomCase draws a grid of up to 24×24×6 with BlockBox obstacles,
// capacity 1 or 2, 2–12 nets of 2–8 pins and MaxIters 1–8.
func randomCase(rng *rand.Rand) routeCase {
	rc := routeCase{nx: 2 + rng.Intn(23), ny: 2 + rng.Intn(23), nz: 1 + rng.Intn(6)}
	randCell := func() Cell { return Cell{rng.Intn(rc.nx), rng.Intn(rc.ny), rng.Intn(rc.nz)} }
	for b := rng.Intn(7); b > 0; b-- {
		lo := randCell()
		hi := Cell{min(rc.nx-1, lo.X+rng.Intn(6)), min(rc.ny-1, lo.Y+rng.Intn(6)), min(rc.nz-1, lo.Z+rng.Intn(3))}
		rc.boxes = append(rc.boxes, [2]Cell{lo, hi})
	}
	for id := 2 + rng.Intn(11); id > 0; id-- {
		n := Net{ID: id}
		for p := 2 + rng.Intn(7); p > 0; p-- {
			n.Pins = append(n.Pins, randCell())
		}
		rc.nets = append(rc.nets, n)
	}
	rc.opt = Options{MaxIters: 1 + rng.Intn(8), CellCapacity: 1 + rng.Intn(2)}
	return rc
}

// checkStep returns a negotiate hook that fails t unless every cell's
// maintained entry cost equals the one computed from scratch off the
// grid, the way routeScan prices a step, and lies within maxEntry, which
// sizes the bucket queue's ring.
func checkStep(t *testing.T) func(*search) {
	return func(s *search) {
		g := s.g
		for i, c := range s.cells {
			want := 1 + historyFactor*int64(g.history[i])
			if u := int(g.usage[i]); u+1 > s.opt.CellCapacity {
				want += presentFactor * int64(u+1-s.opt.CellCapacity)
			}
			if g.blocked[i] {
				want += blockPenalty
			}
			if int64(c.entry) != want {
				t.Fatalf("cell %v: entry cost %d, from scratch %d (usage %d, history %d)",
					g.cell(i), c.entry, want, g.usage[i], g.history[i])
			}
			if c.entry > s.maxEntry {
				t.Fatalf("cell %v: entry cost %d above maxEntry %d", g.cell(i), c.entry, s.maxEntry)
			}
		}
	}
}

// checkRouteMatchesScan routes rc with the router, auditing every entry
// cost after every net and every round, and with routeScan on a separate
// grid, and compares the whole Result, both grids' usage and history
// afterwards, and the searches and expansions the route-round spans
// counted with the oracle's: a pop out of f order shows in the
// expansions even where the routes come out the same.
func checkRouteMatchesScan(t *testing.T, rc routeCase) *Result {
	t.Helper()
	g, gs := rc.grid(t), rc.grid(t)
	tr := obs.NewTracer("route")
	got, err := negotiate(obs.WithTracer(context.Background(), tr), g, rc.nets, rc.opt, checkStep(t))
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	want, counts, err := routeScan(context.Background(), gs, rc.nets, rc.opt)
	if err != nil {
		t.Fatal(err)
	}
	var kernel scanCounts
	for _, sp := range tr.Root().Find("route-round") {
		n, _ := sp.Lookup("searches")
		e, _ := sp.Lookup("expansions")
		kernel.searches += n.(int)
		kernel.expansions += e.(int)
	}
	if kernel != counts {
		t.Fatalf("%d searches and %d expansions, oracle %d and %d",
			kernel.searches, kernel.expansions, counts.searches, counts.expansions)
	}
	if got.Wirelength != want.Wirelength || got.Overflow != want.Overflow ||
		got.Squeezed != want.Squeezed || got.Iters != want.Iters || !slices.Equal(got.Failed, want.Failed) {
		t.Fatalf("result wirelength %d overflow %d squeezed %d iters %d failed %v, oracle %d %d %d %d %v",
			got.Wirelength, got.Overflow, got.Squeezed, got.Iters, got.Failed,
			want.Wirelength, want.Overflow, want.Squeezed, want.Iters, want.Failed)
	}
	if len(got.Routes) != len(want.Routes) {
		t.Fatalf("%d routes, oracle %d", len(got.Routes), len(want.Routes))
	}
	for id, cells := range want.Routes {
		if !slices.Equal(got.Routes[id], cells) {
			t.Fatalf("net %d routed %v, oracle %v", id, got.Routes[id], cells)
		}
	}
	if !slices.Equal(g.usage, gs.usage) || !slices.Equal(g.history, gs.history) {
		t.Fatal("grid usage or history differs from the oracle's")
	}
	return got
}

// TestRouteMatchesScan checks the router against routeScan on fixed
// anchors (the congested bus, a one-plane crossing negotiated to the hard
// round cap, a walled pin, a tree spanning more f than one step) and on
// seeded random grids.
func TestRouteMatchesScan(t *testing.T) {
	wall := routeCase{nx: 5, ny: 5, nz: 1, boxes: [][2]Cell{{{2, 0, 0}, {2, 4, 0}}},
		nets: []Net{{ID: 3, Pins: []Cell{{0, 0, 0}, {4, 0, 0}}}}, opt: Options{MaxIters: 2}}
	t.Run("bus", func(t *testing.T) {
		if res := checkRouteMatchesScan(t, routeCase{nx: 32, ny: 24, nz: 4, nets: busNets()}); res.Iters < 2 {
			t.Fatalf("the bus negotiated %d rounds; it must exercise rip-up", res.Iters)
		}
	})
	t.Run("crossing", func(t *testing.T) {
		rc := crossingCase()
		if res := checkRouteMatchesScan(t, rc); res.Iters != 8*rc.opt.MaxIters || res.Overflow == 0 {
			t.Fatalf("the crossing stopped after %d rounds with overflow %d; it must run to the cap of %d with overflow",
				res.Iters, res.Overflow, 8*rc.opt.MaxIters)
		}
	})
	t.Run("wall", func(t *testing.T) {
		if res := checkRouteMatchesScan(t, wall); res.Squeezed != 1 {
			t.Fatalf("the walled net squeezed %d cells, want 1", res.Squeezed)
		}
	})
	t.Run("thin", func(t *testing.T) {
		// The tree is a straight line and the far pin one bend away, so
		// the route is a shortest path: 63 + 1 + 1 − 2 pins.
		if res := checkRouteMatchesScan(t, thinCase()); res.Wirelength != 63 {
			t.Fatalf("the thin net's wirelength is %d, want 63", res.Wirelength)
		}
	})
	rng := rand.New(rand.NewSource(1))
	n := 300
	if testing.Short() {
		n = 60
	}
	for i := 0; i < n; i++ {
		rc := randomCase(rng)
		t.Run(fmt.Sprintf("random%d", i), func(t *testing.T) { checkRouteMatchesScan(t, rc) })
	}
}

// FuzzRouteMatchesScan checks the router against routeScan on the random
// case a seed draws.
func FuzzRouteMatchesScan(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkRouteMatchesScan(t, randomCase(rand.New(rand.NewSource(seed))))
	})
}
