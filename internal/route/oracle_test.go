package route

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// routeScan is the router RouteContext replaced, kept verbatim as its
// oracle: float64 costs read from the grid's history, usage and blocked
// arrays on every relax, a []Cell heuristic sample scanned with
// Manhattan, and a swap-based heap. The fast kernel must make the same
// comparisons in the same order, so every field of the Result and the
// grid's usage and history afterwards must match it exactly. It keeps
// the retry with a doubled region margin that the kernel does not have:
// every cell is enterable, so the first search always reaches the tree
// and a match shows the retry never ran.
func routeScan(ctx context.Context, g *Grid, nets []Net, opt Options) (*Result, error) {
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
	sort.SliceStable(order, func(a, b int) bool {
		return pinSpan(nets[order[a]]) > pinSpan(nets[order[b]])
	})

	s := newScanSearch(g, opt)
	routed := map[int][]Cell{}
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
				return nil, fmt.Errorf("route: %w", err)
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
	return res, nil
}

type scanSearch struct {
	g              *Grid
	opt            Options
	cells          []scanCell
	inTree         []uint16
	epoch, tree    uint16
	open           scanHeap
	treeOrder      []Cell
	treeLo, treeHi Cell
	sample         []Cell
	stride         [6]int
}

type scanCell struct {
	gScore float64
	parent int32
	seen   uint16
	closed uint16
}

func newScanSearch(g *Grid, opt Options) *scanSearch {
	n := g.NX * g.NY * g.NZ
	s := &scanSearch{g: g, opt: opt, cells: make([]scanCell, n), inTree: make([]uint16, n)}
	for k, d := range neighbors6 {
		s.stride[k] = (d.Z*g.NY+d.Y)*g.NX + d.X
	}
	return s
}

func (s *scanSearch) addToTree(c Cell, i int) {
	s.inTree[i] = s.tree
	s.treeOrder = append(s.treeOrder, c)
	s.treeLo = Cell{min(s.treeLo.X, c.X), min(s.treeLo.Y, c.Y), min(s.treeLo.Z, c.Z)}
	s.treeHi = Cell{max(s.treeHi.X, c.X), max(s.treeHi.Y, c.Y), max(s.treeHi.Z, c.Z)}
}

func (s *scanSearch) routeNet(n Net) []Cell {
	if len(n.Pins) == 0 {
		return nil
	}
	s.tree++
	if s.tree == 0 {
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

func (s *scanSearch) connect(src Cell) bool {
	g := s.g
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
	lo := Cell{min(src.X, s.treeLo.X), min(src.Y, s.treeLo.Y), min(src.Z, s.treeLo.Z)}
	hi := Cell{max(src.X, s.treeHi.X), max(src.Y, s.treeHi.Y), max(src.Z, s.treeHi.Z)}
	for inflate := regionInflate; ; inflate *= 2 {
		rlo := Cell{max(0, lo.X-inflate), max(0, lo.Y-inflate), max(0, lo.Z-inflate)}
		rhi := Cell{min(g.NX-1, hi.X+inflate), min(g.NY-1, hi.Y+inflate), min(g.NZ-1, hi.Z+inflate)}
		if hit := s.astar(src, sample, rlo, rhi); hit >= 0 {
			for i := hit; i >= 0; i = int(s.cells[i].parent) {
				if s.inTree[i] != s.tree {
					s.addToTree(g.cell(i), i)
				}
			}
			return true
		}
		if rlo == (Cell{0, 0, 0}) && rhi == (Cell{g.NX - 1, g.NY - 1, g.NZ - 1}) {
			return false
		}
	}
}

func (s *scanSearch) astar(src Cell, sample []Cell, rlo, rhi Cell) int {
	g, opt := s.g, s.opt
	s.epoch++
	if s.epoch == 0 {
		for i := range s.cells {
			s.cells[i].seen, s.cells[i].closed = 0, 0
		}
		s.epoch = 1
	}
	si := g.idx(src)
	s.cells[si] = scanCell{parent: -1, seen: s.epoch}
	s.open = s.open[:0]
	s.open.push(scanItem{f: nearestScan(src, sample), idx: si})
	for len(s.open) > 0 {
		ci := s.open.pop().idx
		cur := &s.cells[ci]
		if cur.closed == s.epoch {
			continue
		}
		cur.closed = s.epoch
		if s.inTree[ci] == s.tree {
			return ci
		}
		c := g.cell(ci)
		for k, d := range neighbors6 {
			nxt := c.Add(d)
			if nxt.X < rlo.X || nxt.X > rhi.X || nxt.Y < rlo.Y || nxt.Y > rhi.Y ||
				nxt.Z < rlo.Z || nxt.Z > rhi.Z {
				continue
			}
			ni := ci + s.stride[k]
			cost := 1.0 + historyFactor*float64(g.history[ni])
			if u := int(g.usage[ni]); u+1 > opt.CellCapacity {
				cost += presentFactor * float64(u+1-opt.CellCapacity)
			}
			ng := cur.gScore + cost
			if g.blocked[ni] {
				ng += blockPenalty
			}
			next := &s.cells[ni]
			if next.seen == s.epoch && ng >= next.gScore {
				continue
			}
			next.gScore, next.parent, next.seen = ng, int32(ci), s.epoch
			s.open.push(scanItem{f: ng + nearestScan(nxt, sample), idx: ni})
		}
	}
	return -1
}

func nearestScan(c Cell, sample []Cell) float64 {
	best := 1 << 30
	for _, t := range sample {
		if d := c.Manhattan(t); d < best {
			best = d
		}
	}
	return float64(best)
}

type scanItem struct {
	f   float64
	idx int
}

// scanHeap is container/heap's Push and Pop with up and down inlined,
// swapping at every level.
type scanHeap []scanItem

func (h *scanHeap) push(it scanItem) {
	*h = append(*h, it)
	q := *h
	for j := len(q) - 1; ; {
		i := (j - 1) / 2
		if i == j || !(q[j].f < q[i].f) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *scanHeap) pop() scanItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].f < q[j].f {
			j = j2
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
// shrinking often enough that negotiation runs to the hard round cap,
// 8×MaxIters, and still ends with a shared cell.
func crossingCase() routeCase {
	return routeCase{nx: 6, ny: 6, nz: 1, opt: Options{MaxIters: 1}, nets: []Net{
		{ID: 0, Pins: []Cell{{2, 2, 0}, {2, 5, 0}}},
		{ID: 1, Pins: []Cell{{3, 5, 0}, {1, 3, 0}}},
		{ID: 2, Pins: []Cell{{3, 3, 0}, {2, 4, 0}}},
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
// grid, the way routeScan prices a step.
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
		}
	}
}

// checkRouteMatchesScan routes rc with the router, auditing every entry
// cost after every net and every round, and with routeScan on a separate
// grid, and compares the whole Result and both grids' usage and history
// afterwards.
func checkRouteMatchesScan(t *testing.T, rc routeCase) *Result {
	t.Helper()
	g, gs := rc.grid(t), rc.grid(t)
	got, err := negotiate(context.Background(), g, rc.nets, rc.opt, checkStep(t))
	if err != nil {
		t.Fatal(err)
	}
	want, err := routeScan(context.Background(), gs, rc.nets, rc.opt)
	if err != nil {
		t.Fatal(err)
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
// round cap, a walled pin) and on seeded random grids.
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
