package route

import (
	"testing"
	"testing/quick"
)

func mustGrid(t *testing.T, nx, ny, nz int) *Grid {
	t.Helper()
	g, err := NewGrid(nx, ny, nz)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGridRejectsEmpty(t *testing.T) {
	if _, err := NewGrid(0, 5, 5); err == nil {
		t.Fatal("empty grid accepted")
	}
}

func TestCellHelpers(t *testing.T) {
	a := Cell{1, 2, 3}
	if a.Add(Cell{1, 1, 1}) != (Cell{2, 3, 4}) {
		t.Fatal("Add broken")
	}
	if a.Manhattan(Cell{0, 0, 0}) != 6 {
		t.Fatal("Manhattan broken")
	}
	// The router's dense scratch walks cells by index: idx must number
	// the grid's cells 0..n-1 in (Z, Y, X) order, and cell invert it.
	g := mustGrid(t, 3, 4, 5)
	i := 0
	for z := 0; z < g.NZ; z++ {
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				c := Cell{x, y, z}
				if g.idx(c) != i || g.cell(i) != c {
					t.Fatalf("cell %v: idx %d, cell(%d) = %v", c, g.idx(c), i, g.cell(i))
				}
				i++
			}
		}
	}
}

func TestBlocking(t *testing.T) {
	g := mustGrid(t, 4, 4, 4)
	g.Block(Cell{1, 1, 1})
	if !g.Blocked(Cell{1, 1, 1}) || g.Blocked(Cell{0, 0, 0}) {
		t.Fatal("Block broken")
	}
	if !g.Blocked(Cell{-1, 0, 0}) || !g.Blocked(Cell{4, 0, 0}) {
		t.Fatal("outside must be blocked")
	}
	g.BlockBox(Cell{2, 2, 2}, Cell{3, 3, 3})
	if !g.Blocked(Cell{3, 2, 3}) {
		t.Fatal("BlockBox broken")
	}
	g.Unblock(Cell{2, 2, 2})
	if g.Blocked(Cell{2, 2, 2}) {
		t.Fatal("Unblock broken")
	}
}

func TestSingleStraightRoute(t *testing.T) {
	g := mustGrid(t, 10, 3, 3)
	nets := []Net{{ID: 0, Pins: []Cell{{0, 1, 1}, {9, 1, 1}}}}
	res, err := Route(g, nets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("failed nets: %v", res.Failed)
	}
	if err := res.Validate(g, nets); err != nil {
		t.Fatal(err)
	}
	// Straight line: 10 cells, 8 beyond the 2 pins.
	if res.Wirelength != 8 {
		t.Fatalf("wirelength = %d, want 8", res.Wirelength)
	}
	if res.Overflow != 0 || res.Iters != 1 {
		t.Fatalf("overflow=%d iters=%d", res.Overflow, res.Iters)
	}
}

func TestRouteAroundObstacle(t *testing.T) {
	g := mustGrid(t, 9, 5, 1)
	// Wall at x=4 except no gap: route must climb over in y.
	for y := 0; y < 4; y++ {
		g.Block(Cell{4, y, 0})
	}
	nets := []Net{{ID: 7, Pins: []Cell{{0, 0, 0}, {8, 0, 0}}}}
	res, err := Route(g, nets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatal("route failed")
	}
	if err := res.Validate(g, nets); err != nil {
		t.Fatal(err)
	}
	// Detour costs: straight 9 cells would be wl 7; the wall forces ≥ 8 extra.
	if res.Wirelength <= 7 {
		t.Fatalf("wirelength = %d, expected a detour", res.Wirelength)
	}
}

func TestWalledNetSqueezesThrough(t *testing.T) {
	// Obstacles are soft walls: a net with no legal path squeezes through
	// at high cost and the squeeze is counted.
	g := mustGrid(t, 5, 5, 1)
	for y := 0; y < 5; y++ {
		g.Block(Cell{2, y, 0})
	}
	nets := []Net{{ID: 3, Pins: []Cell{{0, 0, 0}, {4, 0, 0}}}}
	res, err := Route(g, nets, Options{MaxIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("failed = %v", res.Failed)
	}
	if res.Squeezed != 1 {
		t.Fatalf("squeezed = %d, want exactly the one wall crossing", res.Squeezed)
	}
	if err := res.Validate(g, nets); err != nil {
		t.Fatal(err)
	}
}

func TestPinOutsideGridRejected(t *testing.T) {
	g := mustGrid(t, 3, 3, 3)
	if _, err := Route(g, []Net{{ID: 0, Pins: []Cell{{9, 9, 9}}}}, Options{}); err == nil {
		t.Fatal("out-of-grid pin accepted")
	}
}

func TestMultiPinTree(t *testing.T) {
	g := mustGrid(t, 9, 9, 1)
	nets := []Net{{ID: 1, Pins: []Cell{{0, 0, 0}, {8, 0, 0}, {4, 8, 0}, {0, 8, 0}}}}
	res, err := Route(g, nets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatal("multi-pin net failed")
	}
	if err := res.Validate(g, nets); err != nil {
		t.Fatal(err)
	}
	// Tree wirelength must be below routing each pair separately.
	if res.Wirelength > 40 {
		t.Fatalf("wirelength = %d, tree sharing broken", res.Wirelength)
	}
}

func TestNegotiationResolvesConflict(t *testing.T) {
	// Two nets whose straight paths cross in the z=0 plane must negotiate:
	// one of them bridges over through z=1 (in a single plane the crossing
	// would be topologically unavoidable).
	g := mustGrid(t, 7, 7, 2)
	nets := []Net{
		{ID: 0, Pins: []Cell{{0, 3, 0}, {6, 3, 0}}},
		{ID: 1, Pins: []Cell{{3, 0, 0}, {3, 6, 0}}},
	}
	res, err := Route(g, nets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("failed: %v", res.Failed)
	}
	if res.Overflow != 0 {
		t.Fatalf("overflow = %d after negotiation", res.Overflow)
	}
	if err := res.Validate(g, nets); err != nil {
		t.Fatal(err)
	}
	// The crossing net pays at least the 2-cell z hop.
	if res.Wirelength < 12 {
		t.Fatalf("wirelength = %d, expected a z-hop detour beyond 2×5", res.Wirelength)
	}
}

func TestUnresolvableConflictKeepsOverflow(t *testing.T) {
	// In a 1-cell-tall plane, two crossing nets cannot be legalized; the
	// router must terminate and report residual overflow honestly.
	g := mustGrid(t, 7, 7, 1)
	nets := []Net{
		{ID: 0, Pins: []Cell{{0, 3, 0}, {6, 3, 0}}},
		{ID: 1, Pins: []Cell{{3, 0, 0}, {3, 6, 0}}},
	}
	res, err := Route(g, nets, Options{MaxIters: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overflow == 0 {
		t.Fatal("impossible crossing reported as resolved")
	}
	if res.Iters != 4 {
		t.Fatalf("iters = %d, want full budget", res.Iters)
	}
}

func TestManyParallelNets(t *testing.T) {
	g := mustGrid(t, 12, 12, 2)
	var nets []Net
	for i := 0; i < 10; i++ {
		nets = append(nets, Net{ID: i, Pins: []Cell{{0, i, 0}, {11, i, 0}}})
	}
	res, err := Route(g, nets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 || res.Overflow != 0 {
		t.Fatalf("failed=%v overflow=%d", res.Failed, res.Overflow)
	}
	if err := res.Validate(g, nets); err != nil {
		t.Fatal(err)
	}
}

func TestBounds(t *testing.T) {
	g := mustGrid(t, 10, 3, 3)
	nets := []Net{{ID: 0, Pins: []Cell{{2, 1, 1}, {7, 1, 1}}}}
	res, err := Route(g, nets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, ok := res.Bounds()
	if !ok || lo != (Cell{2, 1, 1}) || hi != (Cell{7, 1, 1}) {
		t.Fatalf("bounds = %v %v %v", lo, hi, ok)
	}
	empty := &Result{Routes: map[int][]Cell{}}
	if _, _, ok := empty.Bounds(); ok {
		t.Fatal("empty bounds reported ok")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := mustGrid(t, 6, 6, 1)
	nets := []Net{{ID: 0, Pins: []Cell{{0, 0, 0}, {5, 0, 0}}}}
	res, err := Route(g, nets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Drop a middle cell: disconnected.
	cells := res.Routes[0]
	res.Routes[0] = append(cells[:2:2], cells[3:]...)
	if err := res.Validate(g, nets); err == nil {
		t.Fatal("disconnected route accepted")
	}
}

func TestQuickRandomPinPairsAlwaysRoutedOnEmptyGrid(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz uint8) bool {
		g, err := NewGrid(8, 8, 8)
		if err != nil {
			return false
		}
		a := Cell{int(ax % 8), int(ay % 8), int(az % 8)}
		b := Cell{int(bx % 8), int(by % 8), int(bz % 8)}
		nets := []Net{{ID: 0, Pins: []Cell{a, b}}}
		res, err := Route(g, nets, Options{})
		if err != nil || len(res.Failed) != 0 {
			return false
		}
		// Optimal wirelength on an empty grid = Manhattan distance − 1
		// intermediate cells (total cells = dist + 1, minus 2 pins),
		// except when the pins coincide.
		want := a.Manhattan(b) - 1
		if want < 0 {
			want = 0
		}
		return res.Wirelength == want && res.Validate(g, nets) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestNegotiatedRoutingAllocations guards the router's scratch: A*
// searches reuse one dense per-cell array and one heap, so a negotiated
// routing allocates per routed net (its cells), not per expanded cell.
func TestNegotiatedRoutingAllocations(t *testing.T) {
	nets := busNets()
	rounds := 0
	allocs := testing.AllocsPerRun(5, func() {
		g, err := NewGrid(32, 24, 4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Route(g, nets, Options{})
		if err != nil || len(res.Failed) != 0 {
			t.Fatalf("routing failed: %v %v", err, res.Failed)
		}
		rounds = res.Iters
	})
	if rounds < 2 {
		t.Fatalf("the bus negotiated %d rounds; it must exercise rip-up", rounds)
	}
	perNet := allocs / float64(len(nets))
	t.Logf("%.0f allocations per net over %d rounds", perNet, rounds)
	if perNet >= 100 {
		t.Fatalf("%.0f allocations per net over %d rounds, want < 100", perNet, rounds)
	}
}
